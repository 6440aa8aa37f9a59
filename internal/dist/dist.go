// Package dist implements the last item on the paper's future-work list
// (§6.3): "we also wish to extend Snap! ... to support inter-node
// parallelism." It runs the MapReduce engine across a simulated cluster of
// share-nothing nodes connected by an in-memory message fabric:
//
//	partition → local parallel map → shuffle by key hash → local sort +
//	parallel reduce → gather
//
// Nodes are goroutines; every key/value pair crossing a node boundary is
// structured-cloned and counted, so the fabric reports the communication
// volume a real interconnect would carry — the quantity an inter-node
// Snap! deployment would be judged by.
package dist

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/mapreduce"
	"repro/internal/value"
)

// Config drives a distributed run.
type Config struct {
	// Nodes is the simulated node count (default 4).
	Nodes int
	// WorkersPerNode is each node's local (intra-node) parallelism —
	// its Web-Worker pool (default 2).
	WorkersPerNode int
	// FailMapOn injects a one-shot fault: the listed node IDs crash on
	// their first map attempt. The coordinator reassigns each failed
	// partition to the next live node and re-executes — MapReduce's
	// standard speculative re-execution, exercised without real machine
	// failures.
	FailMapOn []int
}

func (c *Config) fill() {
	if c.Nodes <= 0 {
		c.Nodes = 4
	}
	if c.WorkersPerNode <= 0 {
		c.WorkersPerNode = 2
	}
}

// Stats reports what crossed the simulated interconnect.
type Stats struct {
	// ShuffleMessages is the number of point-to-point sends in the
	// shuffle (pairs that changed nodes; node-local pairs are free).
	ShuffleMessages int64
	// ShuffleBytes approximates the shuffle volume (key bytes + an
	// 8-byte value slot per pair).
	ShuffleBytes int64
	// GatherMessages counts result pairs sent to the coordinator.
	GatherMessages int64
	// Reexecutions counts map partitions re-run on a different node
	// after an injected crash.
	Reexecutions int64
	// PairsPerNode records each node's post-shuffle pair count — the
	// reduce-side balance.
	PairsPerNode []int64
}

// Imbalance reports max/mean of the post-shuffle distribution (1.0 =
// perfectly balanced reduce side).
func (s Stats) Imbalance() float64 {
	if len(s.PairsPerNode) == 0 {
		return 1
	}
	var total, max int64
	for _, n := range s.PairsPerNode {
		total += n
		if n > max {
			max = n
		}
	}
	if total == 0 {
		return 1
	}
	mean := float64(total) / float64(len(s.PairsPerNode))
	return float64(max) / mean
}

// owner maps a key to its reducing node.
func owner(key string, nodes int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(nodes))
}

// MapReduce runs the full distributed pipeline and returns the merged,
// key-sorted result plus the interconnect statistics. The result is
// identical to single-node mapreduce.Run for the same mapper and reducer.
func MapReduce(input *value.List, m mapreduce.Mapper, r mapreduce.Reducer, cfg Config) (mapreduce.Result, Stats, error) {
	cfg.fill()
	n := input.Len()
	nodes := cfg.Nodes
	if nodes > n && n > 0 {
		nodes = n
	}
	if n == 0 {
		return nil, Stats{PairsPerNode: make([]int64, nodes)}, nil
	}

	// Partition the input in contiguous blocks (the data starts
	// sharded, as it would on a real cluster's filesystem).
	parts := make([]*value.List, nodes)
	chunk := (n + nodes - 1) / nodes
	items := input.Items()
	for k := 0; k < nodes; k++ {
		lo, hi := k*chunk, (k+1)*chunk
		if lo > n {
			lo = n
		}
		if hi > n {
			hi = n
		}
		part := value.NewListCap(hi - lo)
		for i := lo; i < hi; i++ {
			part.Add(value.CloneValue(items[i])) // shipping input to the node
		}
		parts[k] = part
	}

	stats := Stats{PairsPerNode: make([]int64, nodes)}
	// inboxes[dst][p] holds the pairs partition p shuffled to node dst.
	// Each slot has one writer (whichever node maps partition p), and
	// reading an owner's slots in partition order hands every key's values
	// to its reducer in input order — the order single-node Run uses — no
	// matter which node finishes first or re-executes a crashed partition.
	inboxes := make([][][]mapreduce.KVP, nodes)
	for k := range inboxes {
		inboxes[k] = make([][]mapreduce.KVP, nodes)
	}
	var shuffleMsgs, shuffleBytes atomic.Int64
	errs := make([]error, nodes)
	crashed := map[int]bool{}
	for _, id := range cfg.FailMapOn {
		if id >= 0 && id < nodes {
			crashed[id] = true
		}
	}

	// mapPartition runs partition p's map phase on behalf of `node` and
	// shuffles the intermediate pairs.
	mapPartition := func(node, p int) error {
		mid, err := mapreduce.MapOnly(parts[p], m, cfg.WorkersPerNode)
		if err != nil {
			return fmt.Errorf("node %d map: %w", node, err)
		}
		for _, kv := range mid {
			dst := owner(kv.Key, nodes)
			if dst != node {
				shuffleMsgs.Add(1)
				shuffleBytes.Add(int64(len(kv.Key)) + 8)
				// Structured clone across the node boundary.
				kv.Val = value.CloneValue(kv.Val)
			}
			inboxes[dst][p] = append(inboxes[dst][p], kv)
		}
		return nil
	}

	// Phase 1+2: local map, then shuffle. Injected crashes lose the
	// partition's work entirely (nothing is shuffled from a crashed
	// attempt).
	var wg sync.WaitGroup
	failed := make([]bool, nodes)
	for k := 0; k < nodes; k++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			if crashed[node] {
				failed[node] = true
				return
			}
			if err := mapPartition(node, node); err != nil {
				errs[node] = err
			}
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, stats, err
		}
	}

	// Recovery: reassign each crashed node's partition to the next live
	// node (round-robin) and re-execute — the pairs still shuffle to
	// their key owners, so the result is unchanged.
	for node := range failed {
		if !failed[node] {
			continue
		}
		replacement := -1
		for off := 1; off < nodes; off++ {
			cand := (node + off) % nodes
			if !crashed[cand] {
				replacement = cand
				break
			}
		}
		if replacement < 0 {
			return nil, stats, fmt.Errorf("all %d nodes crashed; nothing can re-execute", nodes)
		}
		stats.Reexecutions++
		if err := mapPartition(replacement, node); err != nil {
			return nil, stats, err
		}
	}
	stats.ShuffleMessages = shuffleMsgs.Load()
	stats.ShuffleBytes = shuffleBytes.Load()

	// Phase 3: local sort + reduce on each node.
	partials := make([]mapreduce.Result, nodes)
	for k := 0; k < nodes; k++ {
		var in []mapreduce.KVP
		for _, box := range inboxes[k] {
			in = append(in, box...)
		}
		stats.PairsPerNode[k] = int64(len(in))
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			res, err := mapreduce.ReduceSorted(in, r, cfg.WorkersPerNode)
			if err != nil {
				errs[node] = fmt.Errorf("node %d reduce: %w", node, err)
				return
			}
			partials[node] = res
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, stats, err
		}
	}

	// Phase 4: gather to the coordinator and merge by key. Each key
	// lives on exactly one node, so concatenation + sort merges cleanly.
	var out mapreduce.Result
	for k := 0; k < nodes; k++ {
		stats.GatherMessages += int64(len(partials[k]))
		out = append(out, partials[k]...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, stats, nil
}
