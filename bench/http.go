package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// cleanup tracks what this process must not leave behind — child
// daemons and scratch directories — so main can release it on every
// exit path, including failed checks and SIGINT.
var cleanup struct {
	mu      sync.Mutex
	daemons map[*daemon]bool
	dirs    map[string]bool
}

// releaseAll kills every live daemon, waits for it, and removes every
// scratch directory.
func releaseAll() {
	cleanup.mu.Lock()
	daemons, dirs := cleanup.daemons, cleanup.dirs
	cleanup.daemons, cleanup.dirs = nil, nil
	cleanup.mu.Unlock()
	for d := range daemons {
		d.kill()
	}
	for dir := range dirs {
		os.RemoveAll(dir)
	}
}

// workDir is where the benchmark keeps build outputs, scratch ledgers
// and span files: $BENCH_WORK, or .bench_build in the current
// directory. It is inside the checkout and ignored by git.
func workDir() string {
	if w := os.Getenv("BENCH_WORK"); w != "" {
		return w
	}
	return ".bench_build"
}

// scratchDir creates a fresh directory under workDir, removed by
// releaseAll (or earlier by removeScratch).
func scratchDir(prefix string) (string, error) {
	base, err := filepath.Abs(filepath.Join(workDir(), "tmp"))
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(base, prefix)
	if err != nil {
		return "", err
	}
	cleanup.mu.Lock()
	if cleanup.dirs == nil {
		cleanup.dirs = make(map[string]bool)
	}
	cleanup.dirs[dir] = true
	cleanup.mu.Unlock()
	return dir, nil
}

func removeScratch(dir string) {
	cleanup.mu.Lock()
	delete(cleanup.dirs, dir)
	cleanup.mu.Unlock()
	os.RemoveAll(dir)
}

// bwdBinary returns the daemon binary to run: $BENCH_BWD when the
// wrapper script built it, otherwise built here into workDir.
func bwdBinary() (string, error) {
	if b := os.Getenv("BENCH_BWD"); b != "" {
		return b, nil
	}
	out, err := filepath.Abs(filepath.Join(workDir(), "bin", "bwd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", out, "cloudmirror/cmd/bwd")
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/bwd: %w\n%s", err, msg)
	}
	return out, nil
}

// daemon is one running child process: bwd, or the reference work's
// echo process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr bytes.Buffer
	bootNS int64 // exec until /v1/healthz answered 200
}

// startDaemon executes bwd on a free loopback port with PaperSpec,
// one shard, locked admission and algorithm cm, plus any extra flags,
// and waits until it answers /v1/healthz.
func startDaemon(bin string, client *http.Client, extra ...string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("finding a free port: %w", err)
	}
	addr := l.Addr().String()
	l.Close()
	d := &daemon{base: "http://" + addr}
	d.cmd = exec.Command(bin, append([]string{"-addr", addr, "-servers", "2048"}, extra...)...)
	d.cmd.Stderr = &d.stderr
	d.cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting bwd: %w", err)
	}
	d.register()
	for {
		resp, err := client.Get(d.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 30*time.Second {
			d.kill()
			return nil, fmt.Errorf("bwd did not become healthy in 30s: %s", d.stderr.String())
		}
		time.Sleep(500 * time.Microsecond)
	}
	d.bootNS = int64(time.Since(start))
	return d, nil
}

// register makes releaseAll answerable for the child.
func (d *daemon) register() {
	cleanup.mu.Lock()
	if cleanup.daemons == nil {
		cleanup.daemons = make(map[*daemon]bool)
	}
	cleanup.daemons[d] = true
	cleanup.mu.Unlock()
}

// kill sends SIGKILL and waits for the process to end. Idempotent.
func (d *daemon) kill() {
	cleanup.mu.Lock()
	delete(cleanup.daemons, d)
	cleanup.mu.Unlock()
	if d.cmd.ProcessState != nil {
		return
	}
	d.cmd.Process.Kill()
	d.cmd.Wait()
}

// peakRSSMB reads a process's VmHWM (peak resident set) in MB; pid 0
// means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// newClient returns an HTTP client that keeps one connection alive:
// the single caller of the load model.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// httpTarget drives the HTTP API — a bwd child or an in-process
// server — over one keep-alive loopback connection.
type httpTarget struct {
	base   string
	client *http.Client
	ids    []string // grant id by tenant
	buf    bytes.Buffer
	// span, when set, brackets every round trip (the traced run).
	tr *tracer
	// reqBytes and respBytes total the bodies sent and received.
	reqBytes, respBytes int64
	roundTrips          int64
}

func newHTTPTarget(base string, client *http.Client, arrivals int) *httpTarget {
	return &httpTarget{base: base, client: client, ids: make([]string, arrivals)}
}

// grantReply is the part of the API's grant and error bodies the
// client reads.
type grantReply struct {
	ID           string
	VMs, Servers int
	ReservedMbps float64
	Reason       string // of an error body
}

// parse reads the reply's fields from a response body, token by
// token, and stops at the echoed TAG: the caller's own work between
// round trips has to stay small against the round trip it times, and
// decoding the echo is most of a full Unmarshal.
func (g *grantReply) parse(body []byte) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	if _, err := dec.Token(); err != nil { // {
		return err
	}
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return err
		}
		switch key {
		case "id":
			err = dec.Decode(&g.ID)
		case "vms":
			err = dec.Decode(&g.VMs)
		case "servers":
			err = dec.Decode(&g.Servers)
		case "reserved_mbps":
			err = dec.Decode(&g.ReservedMbps)
		case "error":
			var e struct {
				Reason string `json:"reason"`
			}
			err = dec.Decode(&e)
			g.Reason = e.Reason
		case "tag":
			return nil
		default:
			var skip json.RawMessage
			err = dec.Decode(&skip)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// roundTrip sends one request and reads the whole response body into
// t.buf; the returned duration ends with the body's last byte.
func (t *httpTarget) roundTrip(method, path string, body []byte) (status int, ns int64, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, t.base+path, rd)
	if err != nil {
		return 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t.buf.Reset()
	var sp int32 = -1
	if t.tr != nil {
		sp = t.tr.begin("bwd.roundtrip")
	}
	start := time.Now()
	resp, err := t.client.Do(req)
	if err == nil {
		_, err = t.buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	ns = int64(time.Since(start))
	if t.tr != nil {
		t.tr.end(sp, err == nil)
	}
	if err != nil {
		return 0, ns, err
	}
	t.reqBytes += int64(len(body))
	t.respBytes += int64(t.buf.Len())
	t.roundTrips++
	return resp.StatusCode, ns, nil
}

func (t *httpTarget) do(o *op) (outcome, error) {
	var (
		out    outcome
		status int
		want   int
		err    error
	)
	switch o.kind {
	case opAdmit:
		status, out.ns, err = t.roundTrip(http.MethodPost, "/v1/guarantees", o.body)
		want = http.StatusCreated
	case opResize:
		status, out.ns, err = t.roundTrip(http.MethodPost, "/v1/guarantees/"+t.ids[o.tenant]+"/resize", o.body)
		want = http.StatusOK
	case opRelease:
		status, out.ns, err = t.roundTrip(http.MethodDelete, "/v1/guarantees/"+t.ids[o.tenant], nil)
		want = http.StatusNoContent
	}
	if err != nil {
		return out, fmt.Errorf("%s tenant %d: %w", o.kind, o.tenant, err)
	}
	if status == http.StatusNoContent && want == status {
		out.code = codeOK
		t.ids[o.tenant] = ""
		return out, nil
	}
	var reply grantReply
	if err := reply.parse(t.buf.Bytes()); err != nil {
		return out, fmt.Errorf("%s tenant %d: status %d, undecodable body: %w", o.kind, o.tenant, status, err)
	}
	switch status {
	case want:
		out.code = codeOK
		out.vms, out.servers, out.reserved = reply.VMs, reply.Servers, reply.ReservedMbps
		if o.kind == opAdmit {
			t.ids[o.tenant] = reply.ID
		}
		return out, nil
	case http.StatusConflict:
		out.code = reply.Reason
		return out, nil
	}
	return out, fmt.Errorf("%s tenant %d: status %d (%s)", o.kind, o.tenant, status, reply.Reason)
}

// serverStats is the part of GET /v1/stats the tally check reads.
type serverStats struct {
	Stats struct {
		Admitted, Rejected, Failed, Released, Resized int64
	} `json:"stats"`
	Loads []struct {
		ReservedMbps float64
		SlotsUsed    int
		Tenants      int
	} `json:"loads"`
	Live int `json:"live_grants"`
}

// getJSON fetches path and decodes a 200 response into v.
func (t *httpTarget) getJSON(path string, v any) (status int, err error) {
	status, _, err = t.roundTrip(http.MethodGet, path, nil)
	if err != nil {
		return 0, fmt.Errorf("GET %s: %w", path, err)
	}
	if status == http.StatusOK {
		if err := json.Unmarshal(t.buf.Bytes(), v); err != nil {
			return status, fmt.Errorf("GET %s: undecodable body: %w", path, err)
		}
	}
	return status, nil
}
