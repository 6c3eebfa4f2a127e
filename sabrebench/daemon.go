package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one sabred child process listening on loopback.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	exited chan struct{}
	client *http.Client
}

// bootDaemon starts sabred on an ephemeral loopback port and returns
// once it has logged its address.
func bootDaemon(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// If this process dies without stopping the daemon (a signal, a
	// closed stderr pipe), the kernel kills the daemon too (Linux).
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start sabred: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		// Drain stderr until the process exits so it never blocks on a
		// full pipe; the first "listening on" line carries the port.
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "listening on "); ok {
				select {
				case addr <- strings.Fields(a)[0]:
				default:
				}
			}
		}
		_ = cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.exited:
		return nil, errors.New("sabred exited before listening")
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("sabred did not report its address within 30s")
	}
	d.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}}
	return d, nil
}

// waitHealthy polls /healthz until it answers 200.
func (d *daemon) waitHealthy() error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("sabred /healthz not OK within 30s")
}

// stop sends SIGTERM, waits for the process to exit (SIGKILL after
// 10s), and closes idle client connections. Stopping twice is harmless.
func (d *daemon) stop() {
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// peakRSSMB reads the daemon's VmHWM (peak resident set) in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// engineStats reads the engine counters from /stats.
type engineStats struct {
	Jobs, Compiles, Hits, Shared int64
}

func (d *daemon) stats() (engineStats, error) {
	var st engineStats
	resp, err := d.client.Get(d.base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// answer is the outcome of one request as the client saw it.
type answer struct {
	lat    time.Duration
	err    error
	body   []byte // the compile response (or job result) JSON, or the routed stream
	digest uint32 // CRC of the routed QASM text (decoded from body; the whole body for a stream)
	trail  streamTrailers
}

// send performs one request of a key and reads the whole answer.
func (d *daemon) send(ctx context.Context, r request, stream bool) answer {
	start := time.Now()
	var a answer
	switch {
	case stream:
		a = d.sendStream(ctx, r.key)
	case r.job:
		a = d.sendJob(ctx, r.key)
	default:
		a.body, a.err = d.post(ctx, "/compile?"+r.key.query(), r.key.in.body, http.StatusOK)
	}
	a.lat = time.Since(start)
	if a.err == nil && !stream {
		a.digest, a.err = qasmDigest(a.body)
	}
	return a
}

func (d *daemon) post(ctx context.Context, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "text/plain")
	return d.do(req, want)
}

func (d *daemon) do(req *http.Request, want int) ([]byte, error) {
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %.200s", req.Method, req.URL.Path, resp.StatusCode, b)
	}
	return b, nil
}

// sendJob submits the key to /jobs and long-polls it to completion;
// the answer body is the job view, whose "result" is the compile
// response.
func (d *daemon) sendJob(ctx context.Context, k *key) answer {
	b, err := d.post(ctx, "/jobs?"+k.query(), k.in.body, http.StatusAccepted)
	if err != nil {
		return answer{err: err}
	}
	var j struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &j); err != nil || j.ID == "" {
		return answer{err: fmt.Errorf("job submit answer without id: %.200s", b)}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/jobs/"+j.ID+"?wait=60s", nil)
	if err != nil {
		return answer{err: err}
	}
	b, err = d.do(req, http.StatusOK)
	if err != nil {
		return answer{err: err}
	}
	if !bytes.Contains(b[:min(len(b), 256)], []byte(`"state": "done"`)) {
		return answer{err: fmt.Errorf("job %s not done: %.300s", j.ID, b)}
	}
	return answer{body: b}
}

// sendStream posts the key's trace to the streaming compiler. A
// response without trailers is torn and counts as failed.
func (d *daemon) sendStream(ctx context.Context, k *key) answer {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/compile?stream=1&"+k.query(), bytes.NewReader(k.in.body))
	if err != nil {
		return answer{err: err}
	}
	req.Header.Set("Content-Type", "text/plain")
	resp, err := d.client.Do(req)
	if err != nil {
		return answer{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return answer{err: err}
	}
	if resp.StatusCode != http.StatusOK {
		return answer{err: fmt.Errorf("stream: status %d: %.200s", resp.StatusCode, b)}
	}
	var t streamTrailers
	for _, f := range []struct {
		name string
		dst  *int
	}{
		{"X-Sabre-Swaps", &t.swaps}, {"X-Sabre-Bridges", &t.bridges}, {"X-Sabre-Chunks", &t.chunks},
		{"X-Sabre-Max-Window", &t.maxWindow}, {"X-Sabre-Gates-In", &t.gatesIn}, {"X-Sabre-Gates-Out", &t.gatesOut},
	} {
		v := resp.Trailer.Get(f.name)
		n, err := strconv.Atoi(v)
		if err != nil {
			return answer{err: fmt.Errorf("stream torn: trailer %s=%q", f.name, v)}
		}
		*f.dst = n
	}
	return answer{body: b, digest: crc32.ChecksumIEEE(b), trail: t}
}

// qasmDigest finds the routed QASM string in a JSON answer, decodes
// just that string, and returns the CRC of the decoded text. The
// string ends at the first quote that no backslash escapes (QASM text
// holds quotes: include "qelib1.inc").
func qasmDigest(body []byte) (uint32, error) {
	i := bytes.Index(body, []byte(`"qasm": "`))
	if i < 0 {
		return 0, fmt.Errorf("answer without qasm: %.200s", body)
	}
	lit := body[i+len(`"qasm": `):]
	j := 1
	for j < len(lit) && lit[j] != '"' {
		if lit[j] == '\\' {
			j++
		}
		j++
	}
	if j >= len(lit) {
		return 0, errors.New("unterminated qasm string")
	}
	var text string
	if err := json.Unmarshal(lit[:j+1], &text); err != nil {
		return 0, fmt.Errorf("qasm string: %w", err)
	}
	return crc32.ChecksumIEEE([]byte(text)), nil
}

// decodeCompile decodes a compile answer, unwrapping a job view.
func decodeCompile(body []byte, job bool) (*compileResp, error) {
	if job {
		var j struct {
			Result *compileResp `json:"result"`
		}
		if err := json.Unmarshal(body, &j); err != nil {
			return nil, err
		}
		if j.Result == nil {
			return nil, errors.New("job view without result")
		}
		return j.Result, nil
	}
	var r compileResp
	return &r, json.Unmarshal(body, &r)
}
