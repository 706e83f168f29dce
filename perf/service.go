package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/cache/disk"
	"repro/internal/runner"
	"repro/internal/simd"
)

// The service workload's shape. The working set is 8x the memory tier,
// so cold requests mostly read the disk tier; the hot set fits in it.
const (
	memTierEntries = 64
	primedAddrs    = 512
	hotAddrs       = 32
	hotPct         = 60 // share of requests drawn from the hot set
	coldPct        = 25 // share drawn uniformly from every primed address
	warmRequests   = 2000
)

var (
	classNames = [...]string{"hot", "cold", "miss"}
	classSpans = [...]string{"client.hot", "client.cold", "client.miss"}
)

// primed is one address stored during set-up, with the exact response
// every later hit must reproduce byte for byte.
type primed struct {
	body []byte
	resp []byte
}

// service is one set-up of the service workload: an in-process simd
// server (memory tier, disk tier in a temporary directory, a runner
// with one worker per CPU) behind a loopback HTTP listener.
type service struct {
	docs    []doc
	seed    int64
	dir     string
	ts      *httptest.Server
	client  *http.Client
	primed  []primed
	clients int
}

// splitmix64 is the request generator's PRNG: request i of a run is a
// pure function of (seed, i), whichever client draws it.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// setupService starts the server and primes the addresses; warm brings
// the memory tier to the mix's steady state. All of it is set-up time.
func setupService(seed int64, quick bool) (*service, error) {
	docs, err := loadDocs("service_mix")
	if err != nil {
		return nil, err
	}
	s := &service{docs: docs, seed: seed, clients: min(runtime.NumCPU(), 4)}
	// The temporary directory is made in the working directory: the
	// benchmark writes nowhere outside its checkout.
	if s.dir, err = os.MkdirTemp(".", ".perf-tmp-"); err != nil {
		return nil, err
	}
	store, err := disk.Open(s.dir, 0)
	if err != nil {
		s.close()
		return nil, err
	}
	s.ts = httptest.NewServer(simd.New(simd.Config{
		Runner: runner.New(0, nil), Mem: cache.New(memTierEntries), Disk: store}))
	s.client = s.ts.Client()
	s.client.Timeout = 2 * time.Minute

	n := primedAddrs
	if quick {
		n = 2 * hotAddrs
	}
	s.primed = make([]primed, n)
	err = s.parallel(n, func(i int) error {
		body := seeded(docs[i%len(docs)].body, s.addrSeed(i))
		resp, err := s.post(body)
		if err != nil {
			return fmt.Errorf("priming address %d: %v", i, err)
		}
		s.primed[i] = primed{body: body, resp: resp}
		return nil
	})
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// addrSeed spreads the run's seed over the documents' seed keys:
// primed addresses take the first half of the run's million, misses
// the second half.
func (s *service) addrSeed(i int) int64 { return s.seed*1_000_000 + int64(i) }

func (s *service) close() {
	if s.ts != nil {
		s.ts.Close()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// parallel runs f(0..n-1) on the workload's clients and returns the
// first error.
func (s *service) parallel(n int, f func(i int) error) error {
	var next atomic.Int64
	var once sync.Once
	var first error
	var wg sync.WaitGroup
	for c := 0; c < s.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := f(i); err != nil {
					once.Do(func() { first = err })
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// post submits one document and waits for its result. Any status but
// 200 is an error — a 429 shed included.
func (s *service) post(body []byte) ([]byte, error) {
	resp, err := s.client.Post(s.ts.URL+"/v1/runs?wait=1", "application/x-yaml", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// request draws request i of the mix: its class, the document to post
// and, for a hit, the primed entry the response must equal.
func (s *service) request(i int64) (class int, body []byte, hit *primed) {
	u := splitmix64(uint64(s.seed)<<40 ^ uint64(i))
	pick := int((u >> 16) % uint64(len(s.primed)))
	switch pct := int(u % 100); {
	case pct < hotPct:
		return 0, nil, &s.primed[pick%hotAddrs]
	case pct < hotPct+coldPct:
		return 1, nil, &s.primed[pick]
	}
	return 2, seeded(s.docs[pick%len(s.docs)].body, s.addrSeed(500_000+int(i))), nil
}

// checkResponse verifies a response: a hit must equal the primed response byte
// for byte; a miss must be a finished run filed under the address the
// client computes from the document it sent.
func checkResponse(body, resp []byte, hit *primed) error {
	if hit != nil {
		if !bytes.Equal(resp, hit.resp) {
			return fmt.Errorf("hit body differs from the primed body")
		}
		return nil
	}
	req, err := requestOf(body)
	if err != nil {
		return err
	}
	want := `{"address":"` + req.Key().String() + `",`
	if !bytes.HasPrefix(resp, []byte(want)) || !bytes.Contains(resp, []byte(`"status":"done"`)) {
		return fmt.Errorf("response is not a finished run at address %s", req.Key())
	}
	return nil
}

// servicePass is what one timed pass over the mix measured.
type servicePass struct {
	pass
	classMS [len(classNames)]sample // client-observed latency by class
}

// run drives the mix from `clients` closed-loop clients for the
// measuring time (or, if requests > 0, for exactly that many requests),
// starting at request index from. With a recorder every request is a span.
func (s *service) run(from int64, seconds float64, requests int64, rec *recorder) (*servicePass, int64) {
	type clientLog struct {
		classMS [len(classNames)]sample
		failed  int
		err     error
	}
	logs := make([]clientLog, s.clients)
	next := atomic.Int64{}
	next.Store(from)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	start := time.Now()
	var wg sync.WaitGroup
	for c := range logs {
		wg.Add(1)
		go func(l *clientLog) {
			defer wg.Done()
			for {
				if requests == 0 && time.Since(start).Seconds() >= seconds {
					return
				}
				i := next.Add(1) - 1
				if requests > 0 && i >= from+requests {
					return
				}
				class, body, hit := s.request(i)
				if hit != nil {
					body = hit.body
				}
				sp := rec.start(classSpans[class], 0, int(i)+1)
				t0 := time.Now()
				resp, err := s.post(body)
				l.classMS[class] = append(l.classMS[class], float64(time.Since(t0).Nanoseconds())/1e6)
				rec.end(sp)
				if err == nil {
					err = checkResponse(body, resp, hit)
				}
				if err != nil {
					l.failed++
					if l.err == nil {
						l.err = fmt.Errorf("request %d (%s): %v", i, classNames[class], err)
					}
				}
			}
		}(&logs[c])
	}
	wg.Wait()
	p := &servicePass{}
	p.wall = time.Since(start)
	runtime.ReadMemStats(&ms)
	for _, l := range logs {
		for c := range classNames {
			p.classMS[c] = append(p.classMS[c], l.classMS[c]...)
			for _, v := range l.classMS[c] {
				p.opSeconds = append(p.opSeconds, v/1e3)
			}
		}
		p.failed += l.failed
		if p.firstErr == nil {
			p.firstErr = l.err
		}
	}
	p.attempted = len(p.opSeconds)
	if p.attempted > 0 {
		p.allocMB = sample{float64(ms.TotalAlloc-alloc0) / 1e6 / float64(p.attempted)}
	}
	return p, next.Load()
}

// primedFingerprint is the SHA-256 over every primed response in
// address order — the service workload's entry in fingerprints.json.
func (s *service) primedFingerprint() string {
	h := sha256.New()
	for _, p := range s.primed {
		h.Write(p.resp)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// scrape reads the server's /metrics page into series -> value.
func (s *service) scrape() (map[string]float64, error) {
	resp, err := s.client.Get(s.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] = v
			}
		}
	}
	return out, nil
}

// missAnatomy runs miss documents through the application layer
// in-process, span by span: what the server's backend does for them,
// seen from outside. It returns the simulated counts of those runs.
func missAnatomy(rec *recorder, docs [][]byte) (simCounts, int, error) {
	var counts simCounts
	r := runner.New(1, nil)
	for i, body := range docs {
		req, err := requestOf(body)
		if err != nil {
			return counts, i, err
		}
		res, err := r.Do(context.Background(), req)
		if err != nil {
			return counts, i, err
		}
		if err := traceRequest(rec, -(i + 1), req, res); err != nil {
			return counts, i, err
		}
		counts.add(res)
	}
	return counts, len(docs), nil
}
