package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env is what every workload needs from the checkout: the built
// binaries, a work directory the run owns, and the context whose
// cancellation (SIGINT/SIGTERM) kills every child process.
type env struct {
	ctx     context.Context
	root    string // checkout root
	bin     string // directory holding charnet and charnetd
	work    string // per-run temp directory, removed at exit
	seed    uint64
	seconds time.Duration
}

// tempDir makes a fresh directory under the run's work directory.
func (e *env) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(e.work, prefix)
}

// command builds a child process bound to the run's context, so an
// interrupt kills it. WaitDelay bounds how long Wait waits on pipes a
// killed child left open.
func (e *env) command(name string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(e.ctx, filepath.Join(e.bin, name), args...)
	cmd.Dir = e.root
	cmd.WaitDelay = 5 * time.Second
	return cmd
}

// procRun is one finished child process.
type procRun struct {
	stdout []byte
	wall   time.Duration
	cpu    time.Duration // user + system
	maxRSS int64         // bytes
}

// run executes a child to completion, timing it from start to exit.
func (e *env) run(name string, args ...string) (procRun, error) {
	cmd := e.command(name, args...)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	t0 := time.Now()
	err := cmd.Run()
	wall := time.Since(t0)
	if err != nil {
		return procRun{}, fmt.Errorf("%s %s: %v: %s", name, strings.Join(args, " "), err, strings.TrimSpace(errb.String()))
	}
	st := cmd.ProcessState
	r := procRun{stdout: out.Bytes(), wall: wall, cpu: st.UserTime() + st.SystemTime()}
	if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
		r.maxRSS = ru.Maxrss * 1024 // Linux reports KiB
	}
	return r, nil
}

// daemon is a running charnetd bound to an ephemeral port.
type daemon struct {
	cmd     *exec.Cmd
	addr    string // host:port as announced
	launch  time.Time
	healthy time.Time // first 200 from /healthz
	drained chan struct{}
}

// startDaemon launches charnetd on :0 over the given store directory,
// parses the announced address and waits until /healthz answers.
func (e *env) startDaemon(cl *client, cacheDir string) (*daemon, error) {
	cmd := e.command("charnetd", "-addr", "127.0.0.1:0", "-cache", cacheDir)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	d.launch = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(stderr)
	const announce = "charnetd: serving on http://"
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, announce) {
			d.addr = strings.TrimPrefix(line, announce)
			break
		}
	}
	// Keep draining the daemon's log so it never blocks on a full pipe;
	// the log is not part of the measurement.
	go func() {
		_, _ = io.Copy(io.Discard, stderr)
		close(d.drained)
	}()
	if d.addr == "" {
		d.kill()
		return nil, fmt.Errorf("charnetd exited before announcing its address")
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		if st, _, _, err := cl.get(d.url("/healthz")); err == nil && st == 200 {
			d.healthy = time.Now()
			return d, nil
		}
		if time.Now().After(deadline) || e.ctx.Err() != nil {
			d.kill()
			return nil, fmt.Errorf("charnetd on %s never became healthy", d.addr)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// stop drains the daemon with SIGTERM, as an operator would, and kills
// it when the drain takes longer than ten seconds. The log pipe closes
// when the process exits, so it is drained before Wait.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	select {
	case <-d.drained:
		return d.cmd.Wait()
	case <-time.After(10 * time.Second):
		d.kill()
		return fmt.Errorf("charnetd did not drain within 10s")
	}
}

// kill ends the daemon at once; used on failure paths, where the
// process may already have exited and Wait reports the kill.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.drained
	_ = d.cmd.Wait()
}

// cpu reads the daemon's user+system time so far from /proc.
func (d *daemon) cpu() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	var ticks int64
	for _, f := range fields[11:13] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += v
	}
	const clockTicks = 100 // USER_HZ on Linux
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// peakRSS reads the daemon's high-water resident set (VmHWM) in bytes.
func (d *daemon) peakRSS() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// heapAlloc forces a GC in the daemon and reads HeapAlloc from its heap
// profile header.
func (d *daemon) heapAlloc(cl *client) (int64, error) {
	st, body, _, err := cl.get(d.url("/debug/pprof/heap?gc=1&debug=1"))
	if err != nil {
		return 0, err
	}
	if st != 200 {
		return 0, fmt.Errorf("heap profile: status %d", st)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HeapAlloc = "); ok {
			return strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
		}
	}
	return 0, fmt.Errorf("no HeapAlloc in heap profile")
}
