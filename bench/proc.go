package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/runcache"
	"repro/internal/tune"
)

// Daemon timeouts. A figure request on a warm cache takes well under a
// second; the bounds only keep a wedged daemon from hanging the run.
const (
	bootTimeout    = 30 * time.Second
	requestTimeout = 60 * time.Second
	drainTimeout   = 10 * time.Second
)

// buildCubie compiles cmd/cubie from the checkout at root into dir.
func buildCubie(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "cubie")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/cubie")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build cmd/cubie: %w", err)
	}
	return bin, nil
}

// cubieEnv is the environment of every cubie subprocess: the inherited one
// without any CUBIE_* variable, plus CUBIE_TUNED=off so a host's `cubie
// tune` file cannot change the geometry being measured, the run cache
// ("off" disables it), and a temp dir inside the run's scratch dir.
func (b *bench) cubieEnv(cache string) []string {
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "CUBIE_") && !strings.HasPrefix(kv, "TMPDIR=") {
			env = append(env, kv)
		}
	}
	return append(env, tune.EnvVar+"=off", runcache.Env+"="+cache, "TMPDIR="+b.dir)
}

// runCubie runs one cubie command to completion and returns its stdout,
// wall time and peak RSS.
func (b *bench) runCubie(cache string, args ...string) (out []byte, wall time.Duration, rssMB float64, err error) {
	cmd := exec.CommandContext(b.ctx, b.cubie, args...)
	cmd.Env = b.cubieEnv(cache)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	err = cmd.Run()
	wall = time.Since(t0)
	if err != nil {
		return nil, wall, 0, fmt.Errorf("cubie %s: %w", strings.Join(args, " "), err)
	}
	return stdout.Bytes(), wall, peakRSS(cmd.ProcessState), nil
}

// peakRSS reads a finished process's peak resident set from wait4's
// rusage, in MiB.
func peakRSS(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// daemon is one running `cubie serve` subprocess and a keep-alive client
// for it.
type daemon struct {
	cmd    *exec.Cmd
	done   chan struct{} // closed once the process has been reaped
	base   string
	client *http.Client
}

// startDaemon launches `cubie serve` on the given run cache and returns
// once the daemon has written its bound address.
func (b *bench) startDaemon(cache string) (*daemon, error) {
	addrFile := filepath.Join(b.dir, "addr")
	if err := os.Remove(addrFile); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	cmd := exec.CommandContext(b.ctx, b.cubie, "serve", "--addr", "127.0.0.1:0", "--addr-file", addrFile)
	cmd.Env = b.cubieEnv(cache)
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("cubie serve: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is read from cmd.ProcessState
		close(d.done)
	}()
	deadline := time.Now().Add(bootTimeout)
	for {
		// The daemon writes the address only after it listens; a trailing
		// newline marks a complete write.
		if data, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(data, []byte("\n")) {
			d.base = "http://" + strings.TrimSpace(string(data))
			break
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("cubie serve exited during boot: %s", cmd.ProcessState)
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("cubie serve: no address after %s", bootTimeout)
		}
		time.Sleep(time.Millisecond)
	}
	d.client = &http.Client{
		Transport: &http.Transport{DisableCompression: true},
		Timeout:   requestTimeout,
	}
	return d, nil
}

// peakRSS reads the running daemon's peak resident set so far (VmHWM, the
// figure wait4 reports at exit), in MiB.
func (d *daemon) peakRSS() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("daemon peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("daemon peak RSS: %w", err)
			}
			return kib / 1024, nil
		}
	}
	return 0, fmt.Errorf("daemon peak RSS: no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// stop sends SIGTERM and waits for the graceful drain, killing the daemon
// if it overruns.
func (d *daemon) stop() {
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.done:
	case <-time.After(drainTimeout):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// get fetches one path and returns the status and the whole body.
func (d *daemon) get(path string) (int, []byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// figure fetches one catalog figure; any status but 200 is an error.
func (d *daemon) figure(name string) ([]byte, error) {
	status, body, err := d.get("/api/v1/figures/" + name)
	if err != nil {
		return nil, fmt.Errorf("figure %s: %w", name, err)
	}
	if status != http.StatusOK {
		line, _, _ := bytes.Cut(body, []byte("\n"))
		return nil, fmt.Errorf("figure %s: HTTP %d: %s", name, status, line)
	}
	return body, nil
}

// scrape reads the daemon's /metrics and returns its unlabelled series.
func (d *daemon) scrape() (map[string]float64, error) {
	status, body, err := d.get("/metrics")
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("metrics: HTTP %d", status)
	}
	vals := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			vals[name] = v
		}
	}
	return vals, sc.Err()
}
