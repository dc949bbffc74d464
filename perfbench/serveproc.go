package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dfdeques"
	"dfdeques/internal/grt"
	"dfdeques/internal/serve"
	"dfdeques/internal/serve/client"
)

// serve-mix hosts each dfdserve in a child process: this binary re-run
// as "perfbench serve-child", an in-process serve.Server on a loopback
// port. A crash of the server under test then shows up as failed
// requests, a logged panic and a restart, instead of killing the
// benchmark with it.

// serveChildMain runs the child. It prints its address on stdout, serves
// until its stdin closes, then drains and exits. Besides the dfdserve
// API it answers GET /perfbench/stats with the runtime's RunStats, which
// the traced run reads.
func serveChildMain(args []string) int {
	fs := flag.NewFlagSet("serve-child", flag.ExitOnError)
	workers := fs.Int("workers", 1, "scheduler workers")
	seed := fs.Int64("seed", 1, "steal-victim seed")
	contention := fs.Bool("contention", false, "MeasureContention")
	_ = fs.Parse(args)
	s, err := serve.New(serve.Config{
		Runtime: dfdeques.RuntimeConfig{Workers: *workers, Sched: dfdeques.SchedDFDeques, K: serveK, Seed: *seed, MeasureContention: *contention},
		Tenants: serveTenants,
		// Requests wait for their results and never poll, so the server
		// need not keep thousands of finished jobs; a small ring also
		// keeps its memory from depending on how long it has run.
		RetainJobs: 256,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve-child:", err)
		return 1
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve-child:", err)
		_ = s.Close(context.Background())
		return 1
	}
	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	mux.HandleFunc("GET /perfbench/stats", func(w http.ResponseWriter, _ *http.Request) {
		_ = json.NewEncoder(w).Encode(s.Runtime().Stats(grt.JobStats{}))
	})
	hs := &http.Server{Handler: mux}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns http.ErrServerClosed after Close
	}()
	fmt.Println(ln.Addr())
	_, _ = io.Copy(io.Discard, os.Stdin) // returns when the parent closes stdin
	_ = hs.Close()
	<-served
	if err := s.Close(context.Background()); err != nil {
		fmt.Fprintln(os.Stderr, "serve-child: close:", err)
		return 1
	}
	return 0
}

// headBuffer keeps the first 1 MiB written to it: a panic message with
// its stack, or a goroutine dump.
type headBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (h *headBuffer) bytes() []byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]byte(nil), h.buf.Bytes()...)
}

func (h *headBuffer) Write(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if room := 1<<20 - h.buf.Len(); room > 0 {
		h.buf.Write(p[:min(len(p), room)])
	}
	return len(p), nil
}

// panicLine condenses a crashed child's stderr to its panic message and
// the function it panicked in.
func (h *headBuffer) panicLine() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	lines := strings.Split(h.buf.String(), "\n")
	msg, where := "", ""
	for i, l := range lines {
		if msg == "" && (strings.HasPrefix(l, "panic:") || strings.HasPrefix(l, "fatal error:") || strings.HasPrefix(l, "SIGQUIT:")) {
			msg = l
		}
		if msg != "" && strings.HasPrefix(l, "goroutine ") && i+1 < len(lines) {
			where = lines[i+1]
			break
		}
	}
	if msg == "" {
		return "exited without a panic message"
	}
	return msg + " in " + where
}

// serveProc is one running child.
type serveProc struct {
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	stderr  *headBuffer
	exited  chan struct{} // closed once the child has exited and been reaped
	base    string
	tr      *http.Transport
	clients map[string]*client.Client
}

func startProc(workers int, seed int64, contention bool) (*serveProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "serve-child", "-workers", strconv.Itoa(workers), "-seed", strconv.FormatInt(seed, 10), "-contention="+strconv.FormatBool(contention))
	p := &serveProc{cmd: cmd, stderr: &headBuffer{}, exited: make(chan struct{}), clients: map[string]*client.Client{}}
	cmd.Stderr = p.stderr
	if p.stdin, err = cmd.StdinPipe(); err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	addr, err := bufio.NewReader(stdout).ReadString('\n')
	go func() {
		_, _ = io.Copy(io.Discard, stdout) // the child writes nothing more; drain before Wait
		_ = cmd.Wait()                     // the exit status is read from ProcessState
		close(p.exited)
	}()
	if err == nil {
		_, _, err = net.SplitHostPort(strings.TrimSpace(addr))
	}
	if err != nil {
		_ = p.cmd.Process.Kill() // it is not a serve child; the wait goroutine reaps it
		<-p.exited
		return nil, fmt.Errorf("serve child did not start: %v: %s", err, p.stderr.panicLine())
	}
	p.base = "http://" + strings.TrimSpace(addr)
	n := runtime.NumCPU()
	p.tr = &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true}
	hc := &http.Client{Transport: p.tr, Timeout: serveTimeout}
	for name, tc := range serveTenants {
		cl := client.New(p.base).WithKeys(tc.APIKey, "")
		cl.HTTPClient = hc
		p.clients[name] = cl
	}
	return p, nil
}

// stop closes the child's stdin, which drains and stops it, and waits
// for it to exit; a child still running after 10 s is killed.
func (p *serveProc) stop() {
	_ = p.stdin.Close()
	select {
	case <-p.exited:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill() // the wait goroutine reaps it
		<-p.exited
	}
	p.tr.CloseIdleConnections()
}

// maxRSSMB is the exited child's peak resident set, in MiB.
func (p *serveProc) maxRSSMB() float64 {
	if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// stats reads the child's runtime counters.
func (p *serveProc) stats(ctx context.Context) (dfdeques.RunStats, error) {
	var st dfdeques.RunStats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/perfbench/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := p.tr.RoundTrip(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// serveSide is one server under test: the current child and a
// supervisor that restarts it when it crashes.
type serveSide struct {
	workers    int
	seed       int64
	contention bool

	cur       atomic.Pointer[serveProc]
	gen       atomic.Int64 // restarts so far
	stop      chan struct{}
	closeOnce sync.Once
	done      chan struct{}

	// inflight counts requests in flight and lastResp (UnixNano) is when
	// the last HTTP response arrived: the supervisor's hang detector.
	inflight atomic.Int64
	lastResp atomic.Int64
	dumpDir  string // where a crashed or hung child's stderr is saved ("" = nowhere)

	mu      sync.Mutex
	crashes []string
	peakRSS float64 // MiB, over every child
}

// responded records that the server answered a request.
func (s *serveSide) responded() { s.lastResp.Store(time.Now().UnixNano()) }

func startServe(workers int, seed int64, contention bool, dumpDir string) (*serveSide, error) {
	p, err := startProc(workers, seed, contention)
	if err != nil {
		return nil, err
	}
	s := &serveSide{workers: workers, seed: seed, contention: contention, dumpDir: dumpDir, stop: make(chan struct{}), done: make(chan struct{})}
	s.cur.Store(p)
	go s.supervise(p)
	return s, nil
}

// supervise restarts the child when it exits on its own (a crash) or
// stops answering: requests in flight and no response for longer than
// the request timeout. A hung child is sent SIGQUIT first, so its
// stderr holds every goroutine's stack.
func (s *serveSide) supervise(p *serveProc) {
	defer close(s.done)
	tick := time.NewTicker(500 * time.Millisecond)
	defer tick.Stop()
	for {
		s.responded()
		what := "crashed"
	wait:
		for {
			select {
			case <-s.stop:
				p.stop()
				s.notePeak(p)
				return
			case <-p.exited:
				break wait
			case <-tick.C:
				if s.inflight.Load() > 0 && time.Since(time.Unix(0, s.lastResp.Load())) > serveTimeout+time.Second {
					what = "hung"
					_ = p.cmd.Process.Signal(syscall.SIGQUIT)
					select {
					case <-p.exited:
					case <-time.After(3 * time.Second):
						_ = p.cmd.Process.Kill()
						<-p.exited
					}
					break wait
				}
			}
		}
		s.notePeak(p)
		p.tr.CloseIdleConnections()
		s.mu.Lock()
		note := what + ": " + p.stderr.panicLine()
		if s.dumpDir != "" {
			path := filepath.Join(s.dumpDir, fmt.Sprintf("server-workers%d-%d.txt", s.workers, len(s.crashes)+1))
			if err := os.MkdirAll(s.dumpDir, 0o755); err == nil && os.WriteFile(path, p.stderr.bytes(), 0o644) == nil {
				note += " (stderr in " + path + ")"
			}
		}
		s.crashes = append(s.crashes, note)
		s.mu.Unlock()
		np, err := startProc(s.workers, s.seed, s.contention)
		if err != nil {
			s.mu.Lock()
			s.crashes = append(s.crashes, "restart failed: "+err.Error())
			s.mu.Unlock()
			<-s.stop
			return
		}
		s.gen.Add(1)
		s.cur.Store(np)
		p = np
	}
}

func (s *serveSide) notePeak(p *serveProc) {
	s.mu.Lock()
	s.peakRSS = max(s.peakRSS, p.maxRSSMB())
	s.mu.Unlock()
}

// close stops the current child and the supervisor. Idempotent.
func (s *serveSide) close() {
	s.closeOnce.Do(func() { close(s.stop) })
	<-s.done
}

// crashReport returns the crashes seen so far.
func (s *serveSide) crashReport() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.crashes...)
}
