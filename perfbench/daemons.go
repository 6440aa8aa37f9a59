package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one child process (snapserved or snapshardd) listening on
// loopback.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan struct{}
}

// cluster is the set of daemons one workload talks to: a lone snapserved,
// or snapshardd in front of two snapserved backends. front is where the
// load generator sends its requests.
type cluster struct {
	procs []*daemon
	front string
}

// freePort asks the kernel for an unused loopback port. The daemon binds it
// a moment later; on a quiet host nothing else takes it in between.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches bin with default flags except its listen address
// (and, for the router, its backend list).
func startDaemon(bin string, extra ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, extra...)...)
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		cmd.Wait() //nolint:errcheck // exit status is read from ProcessState
		close(d.done)
	}()
	return d, nil
}

// startCluster launches the daemons for a target ("direct" or "routed")
// and returns once every one of them answers /healthz.
func startCluster(binDir, target string) (*cluster, error) {
	c := &cluster{}
	serve := func() (*daemon, error) {
		d, err := startDaemon(binDir + "/snapserved")
		if err == nil {
			c.procs = append(c.procs, d)
		}
		return d, err
	}
	switch target {
	case "direct":
		d, err := serve()
		if err != nil {
			return nil, err
		}
		c.front = d.base
	case "routed":
		var urls []string
		for i := 0; i < 2; i++ {
			d, err := serve()
			if err != nil {
				c.stop()
				return nil, err
			}
			urls = append(urls, d.base)
		}
		r, err := startDaemon(binDir+"/snapshardd", "-backends", strings.Join(urls, ","))
		if err != nil {
			c.stop()
			return nil, err
		}
		c.procs = append(c.procs, r)
		c.front = r.base
	default:
		return nil, fmt.Errorf("unknown target %q", target)
	}
	for _, d := range c.procs {
		if err := d.waitReady(10 * time.Second); err != nil {
			c.stop()
			return nil, err
		}
	}
	return c, nil
}

func (d *daemon) waitReady(limit time.Duration) error {
	client := &http.Client{Timeout: 500 * time.Millisecond}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return fmt.Errorf("%s exited during start-up", d.cmd.Path)
		default:
		}
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready after %v", d.cmd.Path, limit)
}

// cpuTicks reads the user+sys CPU the process has used so far, in clock
// ticks, from /proc/<pid>/stat.
func (d *daemon) cpuTicks() (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after its closing
	// parenthesis are space-separated, utime and stime being the 12th and
	// 13th of them.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat line")
	}
	return ut + st, nil
}

// clockTick is USER_HZ, the unit of /proc CPU times on Linux.
const clockTick = 10 * time.Millisecond

// cpu sums the CPU used by every daemon of the cluster.
func (c *cluster) cpu() (time.Duration, error) {
	var ticks int64
	for _, d := range c.procs {
		t, err := d.cpuTicks()
		if err != nil {
			return 0, err
		}
		ticks += t
	}
	return time.Duration(ticks) * clockTick, nil
}

// stop sends SIGTERM (snapserved drains, snapshardd shuts down), waits for
// every process to exit, and returns the largest peak RSS among them in
// MB, read from each child's rusage.
func (c *cluster) stop() (peakMB float64) {
	for _, d := range c.procs {
		d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already gone is fine
	}
	for _, d := range c.procs {
		select {
		case <-d.done:
		case <-time.After(15 * time.Second):
			d.cmd.Process.Kill() //nolint:errcheck
			<-d.done
		}
		if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			if mb := float64(ru.Maxrss) / 1024; mb > peakMB { // Maxrss is in KiB on Linux
				peakMB = mb
			}
		}
	}
	c.procs = nil
	return peakMB
}
