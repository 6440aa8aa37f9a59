package shard

import (
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// healthTracker decides ring membership. Two signal sources feed it:
//
//   - Active probes: one goroutine per backend GETs /healthz every
//     Interval. Any non-200 answer counts as a failure — which is how a
//     draining backend (503 from snapserved's SIGTERM handler) gets
//     ejected before it goes away.
//   - Passive reports: the proxy reports every forward the backend never
//     served (a dial error, or a pooled connection the backend hung up
//     on), so a crashed backend is ejected within the failure threshold
//     of real traffic rather than waiting out a probe cycle.
//
// FailThreshold consecutive failures eject the backend from the ring;
// one successful *probe* re-admits it. Passive forwarding successes only
// reset the failure streak of a healthy backend — they never re-admit an
// ejected one, because a draining backend still answers requests
// perfectly well and must stay out until its /healthz says otherwise.
type healthTracker struct {
	ring      *Ring
	backends  []string
	client    *http.Client
	interval  time.Duration
	threshold int

	stop chan struct{}
	wg   sync.WaitGroup

	mu           sync.Mutex
	fails        []int
	healthy      []bool
	ejections    []int64
	readmissions []int64
}

func newHealthTracker(ring *Ring, backends []string, interval time.Duration, threshold int) *healthTracker {
	probeTimeout := interval
	if probeTimeout < 100*time.Millisecond {
		probeTimeout = 100 * time.Millisecond
	}
	if probeTimeout > 2*time.Second {
		probeTimeout = 2 * time.Second
	}
	ht := &healthTracker{
		ring:     ring,
		backends: backends,
		// Probes open fresh connections so a backend closing its pooled
		// keep-alive conns (e.g. during drain) can't masquerade as a
		// probe failure streak.
		client: &http.Client{
			Timeout:   probeTimeout,
			Transport: &http.Transport{DisableKeepAlives: true},
		},
		interval:     interval,
		threshold:    threshold,
		stop:         make(chan struct{}),
		fails:        make([]int, len(backends)),
		healthy:      make([]bool, len(backends)),
		ejections:    make([]int64, len(backends)),
		readmissions: make([]int64, len(backends)),
	}
	for i := range ht.healthy {
		ht.healthy[i] = true
	}
	return ht
}

// start launches one probe loop per backend.
func (ht *healthTracker) start() {
	for i := range ht.backends {
		ht.wg.Add(1)
		go ht.probeLoop(i)
	}
}

// close stops the probe loops and waits for them.
func (ht *healthTracker) close() {
	close(ht.stop)
	ht.wg.Wait()
}

func (ht *healthTracker) probeLoop(backend int) {
	defer ht.wg.Done()
	t := time.NewTicker(ht.interval)
	defer t.Stop()
	for {
		select {
		case <-ht.stop:
			return
		case <-t.C:
			ht.report(backend, ht.probe(backend), true)
		}
	}
}

// probe asks one backend's /healthz; only a 200 counts as healthy.
func (ht *healthTracker) probe(backend int) bool {
	resp, err := ht.client.Get(ht.backends[backend] + "/healthz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// report feeds one observation. fromProbe marks active probe results,
// the only signal allowed to re-admit an ejected backend.
func (ht *healthTracker) report(backend int, ok, fromProbe bool) {
	ht.mu.Lock()
	defer ht.mu.Unlock()
	if ok {
		ht.fails[backend] = 0
		if !ht.healthy[backend] && fromProbe {
			ht.healthy[backend] = true
			ht.readmissions[backend]++
			ht.ring.SetMember(backend, true)
			if obs.Enabled() {
				obs.ShardReadmissions.With(strconv.Itoa(backend)).Inc()
			}
		}
		return
	}
	ht.fails[backend]++
	if ht.healthy[backend] && ht.fails[backend] >= ht.threshold {
		ht.healthy[backend] = false
		ht.ejections[backend]++
		ht.ring.SetMember(backend, false)
		if obs.Enabled() {
			obs.ShardEjections.With(strconv.Itoa(backend)).Inc()
		}
	}
}

// reportConnectError is the proxy's passive failure signal: a forward
// the backend never served.
func (ht *healthTracker) reportConnectError(backend int) {
	ht.report(backend, false, false)
}

// reportForwardOK is the proxy's passive success signal: it clears the
// failure streak of a healthy backend but never re-admits an ejected one.
func (ht *healthTracker) reportForwardOK(backend int) {
	ht.report(backend, true, false)
}

// snapshot copies the per-backend health state.
func (ht *healthTracker) snapshot() (healthy []bool, ejections, readmissions []int64) {
	ht.mu.Lock()
	defer ht.mu.Unlock()
	healthy = append([]bool(nil), ht.healthy...)
	ejections = append([]int64(nil), ht.ejections...)
	readmissions = append([]int64(nil), ht.readmissions...)
	return healthy, ejections, readmissions
}
