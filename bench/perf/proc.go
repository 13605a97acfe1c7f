package perf

import (
	"bufio"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procSet tracks every child process a run starts, directly (evserve) or
// through a supervisor (evshardd), so that all of them are killed on every
// exit path and a leaked pid fails the run.
type procSet struct {
	mu          sync.Mutex
	children    []*child
	supervisors []supervisor
}

// supervisor owns worker processes started on the run's behalf
// (shardrpc.Supervisor): Close stops and reaps them, PIDs lists every one it
// ever started.
type supervisor interface {
	PIDs() []int
	Close() error
}

// child is one directly started process.
type child struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once Wait has returned
}

// supervise tracks a supervisor: killAll closes it (Close is idempotent) and
// the leak check covers its workers.
func (ps *procSet) supervise(s supervisor) {
	ps.mu.Lock()
	ps.supervisors = append(ps.supervisors, s)
	ps.mu.Unlock()
}

// start launches cmd and tracks it.
func (ps *procSet) start(cmd *exec.Cmd) (*child, error) {
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // a killed child's exit status carries no information
		close(c.done)
	}()
	ps.mu.Lock()
	ps.children = append(ps.children, c)
	ps.mu.Unlock()
	return c, nil
}

// stop kills the child and waits until it has been reaped.
func (c *child) stop() {
	_ = c.cmd.Process.Kill() // already-exited is fine
	<-c.done
}

// killAll stops every directly started child and closes every supervisor.
func (ps *procSet) killAll() {
	ps.mu.Lock()
	children := append([]*child(nil), ps.children...)
	supervisors := append([]supervisor(nil), ps.supervisors...)
	ps.mu.Unlock()
	for _, c := range children {
		c.stop()
	}
	for _, s := range supervisors {
		s.Close()
	}
}

// pids lists every process the run ever started.
func (ps *procSet) pids() []int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	var pids []int
	for _, c := range ps.children {
		pids = append(pids, c.cmd.Process.Pid)
	}
	for _, s := range ps.supervisors {
		pids = append(pids, s.PIDs()...)
	}
	return pids
}

// resetPeakRSS returns freed memory to the kernel and restarts this
// process's peak-RSS counter, so that a round's peak is its own and not
// what earlier rounds left behind. Where the kernel refuses, the peak
// stays the highest so far.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // 5 resets VmHWM; see proc(5)
}

// peakRSSMB is the peak resident set, in MB, of this process since the last
// resetPeakRSS plus that of every child still running since it started.
func (ps *procSet) peakRSSMB() (float64, error) {
	kb, err := peakRSSKB("self")
	if err != nil {
		return 0, err
	}
	for _, pid := range ps.pids() {
		// A child that is gone was stopped by an earlier round.
		if child, err := peakRSSKB(strconv.Itoa(pid)); err == nil {
			kb += child
		}
	}
	return float64(kb) / 1024, nil
}

// peakRSSKB reads a process's VmHWM from /proc.
func peakRSSKB(pid string) (int64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	_, rest, ok := strings.Cut(string(data), "VmHWM:")
	if !ok {
		return 0, fmt.Errorf("/proc/%s/status has no VmHWM", pid)
	}
	var kb int64
	if _, err := fmt.Sscanf(rest, "%d kB", &kb); err != nil {
		return 0, fmt.Errorf("/proc/%s/status: VmHWM: %w", pid, err)
	}
	return kb, nil
}

// leaked returns the tracked pids still alive two seconds from now; a
// killed process exists until its owner has reaped it, which takes a moment.
func (ps *procSet) leaked() []int {
	pids := ps.pids()
	deadline := time.Now().Add(2 * time.Second)
	for {
		var alive []int
		for _, pid := range pids {
			// Signal 0 probes for existence; a reaped child's pid is gone.
			if err := syscall.Kill(pid, 0); err == nil {
				alive = append(alive, pid)
			}
		}
		if len(alive) == 0 || time.Now().After(deadline) {
			return alive
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// killOnSignal kills the children and removes the scratch directory when
// the run is interrupted, then exits. It returns the function that stops
// watching for signals.
func (ps *procSet) killOnSignal(tmp string) func() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case <-sigs:
			ps.killAll()
			os.RemoveAll(tmp)
			os.Exit(130)
		case <-done:
		}
	}()
	return func() {
		signal.Stop(sigs)
		close(done)
	}
}

// evserveProc is one running evserve.
type evserveProc struct {
	*child
	base string // http://host:port
}

// startServer starts the real evserve binary over a saved dataset with live
// ingestion on, and returns once /healthz answers, with how long that took.
func startServer(e *env, dataPath string) (*evserveProc, float64, error) {
	end := e.tr.Span("server", "start evserve")
	defer end()
	start := time.Now()
	srv, err := launchServer(e, dataPath)
	return srv, time.Since(start).Seconds(), err
}

func launchServer(e *env, dataPath string) (*evserveProc, error) {
	cmd := exec.Command(e.opts.BinDir+"/evserve",
		"-data", dataPath, "-addr", "127.0.0.1:0", "-stream-window", fmt.Sprint(windowMS))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c, err := e.procs.start(cmd)
	if err != nil {
		return nil, fmt.Errorf("start evserve: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		defer close(addr)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "serving fusion queries on "); ok {
				addr <- strings.TrimSpace(rest)
			}
		}
	}()
	var base string
	select {
	case a, ok := <-addr:
		if !ok {
			c.stop()
			return nil, errors.New("evserve exited before announcing its address")
		}
		base = a
	case <-time.After(60 * time.Second):
		c.stop()
		return nil, errors.New("evserve did not announce its address within 60s")
	}
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		c.stop()
		return nil, fmt.Errorf("evserve /healthz: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.stop()
		return nil, fmt.Errorf("evserve /healthz: status %d", resp.StatusCode)
	}
	return &evserveProc{child: c, base: base}, nil
}
