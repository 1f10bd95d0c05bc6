package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// pmkvd as a child process: built once from ./cmd/pmkvd, started on free
// ports (it binds :0 and prints what it got), stopped with SIGTERM, and
// its drain report parsed. Every started server is registered so any
// failure path, signal or watchdog can kill what is still running.

// serverFlags is the one server configuration every kv-* workload uses;
// every other pmkvd flag stays at its default and the JSON protocol is
// never spoken.
var serverFlags = []string{"-addr", "127.0.0.1:0", "-shards", "2", "-cores", "4", "-buckets", "64", "-window", "64"}

// buildServer compiles ./cmd/pmkvd into dir. It is never counted in
// setup_s.
func buildServer(root, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "pmkvd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/pmkvd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/pmkvd: %v\n%s", err, out)
	}
	return bin, nil
}

var (
	liveMu sync.Mutex
	live   = map[*server]bool{}
)

// killAllServers is the last-resort cleanup for signals and the watchdog.
func killAllServers() {
	liveMu.Lock()
	var all []*server
	for s := range live {
		all = append(all, s)
	}
	liveMu.Unlock()
	for _, s := range all {
		s.kill()
	}
}

// serverLog collects the child's stdout and stderr and signals once the
// "serving on" line has been seen.
type serverLog struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	ready   chan struct{}
	serving bool // ready has been closed
}

var (
	servingRE = regexp.MustCompile(`pmkvd: serving on (\S+)`)
	adminRE   = regexp.MustCompile(`pmkvd: admin endpoint on http://(\S+)`)
)

func (l *serverLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	if !l.serving && servingRE.Match(l.buf.Bytes()) {
		l.serving = true
		close(l.ready)
	}
	return len(p), nil
}

func (l *serverLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

type server struct {
	cmd    *exec.Cmd
	log    *serverLog
	addr   string
	admin  string
	startS float64 // exec to "serving on"
	exited chan struct{}
	werr   error
}

// startServer launches pmkvd and waits until it is accepting.
func startServer(bin string, traced bool) (*server, error) {
	args := append([]string(nil), serverFlags...)
	if traced {
		args = append(args, "-check", "-admin", "127.0.0.1:0")
	}
	s := &server{
		cmd:    exec.Command(bin, args...),
		log:    &serverLog{ready: make(chan struct{})},
		exited: make(chan struct{}),
	}
	s.cmd.Stdout = s.log
	s.cmd.Stderr = s.log
	// If the benchmark dies without cleaning up, the kernel reaps pmkvd.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start pmkvd: %w", err)
	}
	liveMu.Lock()
	live[s] = true
	liveMu.Unlock()
	go func() {
		s.werr = s.cmd.Wait()
		close(s.exited)
	}()
	select {
	case <-s.log.ready:
	case <-s.exited:
		s.forget()
		return nil, fmt.Errorf("pmkvd exited before serving: %v\n%s", s.werr, s.log)
	case <-time.After(20 * time.Second):
		s.kill()
		return nil, fmt.Errorf("pmkvd not serving after 20 s\n%s", s.log)
	}
	s.startS = time.Since(t0).Seconds()
	out := s.log.String()
	s.addr = servingRE.FindStringSubmatch(out)[1]
	if traced {
		m := adminRE.FindStringSubmatch(out)
		if m == nil {
			s.kill()
			return nil, fmt.Errorf("pmkvd printed no admin address\n%s", out)
		}
		s.admin = m[1]
	}
	return s, nil
}

func (s *server) pid() int { return s.cmd.Process.Pid }

func (s *server) forget() {
	liveMu.Lock()
	delete(live, s)
	liveMu.Unlock()
}

// kill stops the server hard and waits for it to be gone.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.exited
	s.forget()
}

// drainReport is what a SIGTERM'd pmkvd printed, reduced to what the
// benchmark checks and reports.
type drainReport struct {
	DrainS      float64
	InvariantOK bool
	Fingerprint string
	Publishes   int64 // durable publishes over all shards
	Cycles      int64 // simulated cycles over all shards
	Epochs      int64 // epochs persisted over all shards
	DLLine      string
	DLAcked     int64
	PeakRSSMB   float64
	Raw         string
}

var (
	fingerprintRE = regexp.MustCompile(`combined fingerprint (\w+)`)
	publishesRE   = regexp.MustCompile(`publishes (\d+) durable / (\d+) total`)
	cyclesRE      = regexp.MustCompile(`shard \d+: clean after (\d+) cycles`)
	epochsRE      = regexp.MustCompile(`(\d+) epochs persisted`)
	dlRE          = regexp.MustCompile(`durable linearizability: (.*)`)
	dlAckedRE     = regexp.MustCompile(`^OK \(.* (\d+) acked\)$`)
)

// parseDrain reads a drain report. It does not judge it; checkDrain does.
func parseDrain(raw string) drainReport {
	r := drainReport{Raw: raw, DLAcked: -1}
	r.InvariantOK = bytes.Contains([]byte(raw), []byte("recovery invariants: OK"))
	if m := fingerprintRE.FindStringSubmatch(raw); m != nil {
		r.Fingerprint = m[1]
	}
	for _, m := range publishesRE.FindAllStringSubmatch(raw, -1) {
		n, _ := strconv.ParseInt(m[1], 10, 64)
		r.Publishes += n
	}
	for _, m := range cyclesRE.FindAllStringSubmatch(raw, -1) {
		n, _ := strconv.ParseInt(m[1], 10, 64)
		r.Cycles += n
	}
	for _, m := range epochsRE.FindAllStringSubmatch(raw, -1) {
		n, _ := strconv.ParseInt(m[1], 10, 64)
		r.Epochs += n
	}
	if m := dlRE.FindStringSubmatch(raw); m != nil {
		r.DLLine = m[1]
		if a := dlAckedRE.FindStringSubmatch(m[1]); a != nil {
			r.DLAcked, _ = strconv.ParseInt(a[1], 10, 64)
		}
	}
	return r
}

// checkDrain returns what is wrong with a drain report, given how many
// writes the client saw acknowledged. A traced server ran with -check and
// must also print a clean durable-linearizability line whose acked count
// is exactly the client's.
func checkDrain(r drainReport, ackedWrites int64, traced bool) []string {
	var bad []string
	if !r.InvariantOK {
		bad = append(bad, "drain report lacks \"recovery invariants: OK\"")
	}
	if r.Publishes != ackedWrites {
		bad = append(bad, fmt.Sprintf("drain report recovered %d durable publishes, client saw %d writes acked", r.Publishes, ackedWrites))
	}
	if traced {
		switch {
		case r.DLLine == "":
			bad = append(bad, "drain report lacks a durable linearizability line")
		case r.DLAcked < 0:
			bad = append(bad, "durable linearizability: "+r.DLLine)
		case r.DLAcked != ackedWrites:
			bad = append(bad, fmt.Sprintf("durable linearizability acked %d, client saw %d writes acked", r.DLAcked, ackedWrites))
		}
	}
	return bad
}

// stop sends SIGTERM, waits for the drain, and parses the report.
func (s *server) stop() (drainReport, error) {
	t0 := time.Now()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return drainReport{}, fmt.Errorf("signal pmkvd: %w", err)
	}
	select {
	case <-s.exited:
	case <-time.After(90 * time.Second):
		s.kill()
		return drainReport{}, fmt.Errorf("pmkvd still draining after 90 s\n%s", s.log)
	}
	s.forget()
	r := parseDrain(s.log.String())
	r.DrainS = time.Since(t0).Seconds()
	if s.werr != nil {
		return r, fmt.Errorf("pmkvd exited with %v\n%s", s.werr, r.Raw)
	}
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.PeakRSSMB = float64(ru.Maxrss) / 1024
	}
	return r, nil
}

// statz is the part of pmkvd's /statz reply the benchmark reads.
type statz struct {
	Stages []struct {
		Stage  string  `json:"stage"`
		Count  float64 `json:"count"`
		MeanUS float64 `json:"mean_us"`
	} `json:"stages"`
	Shards []struct {
		QueueDepth float64 `json:"queue_depth"`
		Batches    float64 `json:"batches"`
		AvgBatch   float64 `json:"avg_batch"`
		FastHits   float64 `json:"read_fast_hits"`
		Fallbacks  float64 `json:"read_fallbacks"`
	} `json:"shards"`
}

var adminClient = &http.Client{Timeout: 10 * time.Second}

func (s *server) scrape(path string) ([]byte, error) {
	resp, err := adminClient.Get("http://" + s.admin + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

func (s *server) scrapeStatz() (*statz, error) {
	b, err := s.scrape("/statz")
	if err != nil {
		return nil, err
	}
	var z statz
	if err := json.Unmarshal(b, &z); err != nil {
		return nil, fmt.Errorf("/statz: %w", err)
	}
	return &z, nil
}

// stageSums returns, per stage name, (count, count x mean) so two scrapes
// can be subtracted into a mean over the interval between them.
func (z *statz) stageSums() map[string][2]float64 {
	out := make(map[string][2]float64, len(z.Stages))
	for _, st := range z.Stages {
		out[st.Stage] = [2]float64{st.Count, st.Count * st.MeanUS}
	}
	return out
}
