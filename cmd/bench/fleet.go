package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/journal"
	"repro/internal/mathx"
	"repro/internal/scenario"
)

// The fleet workload runs the service's two paths one after the other.
// The write path is a batch of fresh jobs: queue, two simulation legs
// each, a fsynced completion record. The read path resubmits one hot job
// that the result cache serves: HTTP, admission, a fsynced journal
// admit, the report fetch.
//
// Gated runs bill both paths together on the process CPU clock: the
// fresh jobs' virtual seconds over the CPU of the whole load phase. A
// single cache hit is not timed for the gate. Its CPU is mostly kernel
// work (loopback TCP, futex wake-ups, the fsync), and on shared 2-vCPU
// hosts the median over 1,000 hits spread by 5% to 27% across runs of
// the same code, with block medians inside one run ranging over 1.5x.
// Wall-clock latency was worse still. The gated latencies are instead
// the service's own per-job figure, each fresh job's virtual worst-path
// p99 (Record.E2EP99), summarized over the fresh jobs as /fleetz
// summarizes it over all jobs: its p50 and p99. They are
// bit-deterministic for a seed. The traced run measures the read path
// the way a client sees it: an open loop of independent clients
// arriving as a Poisson process, each request timed on the wall clock
// from when it was due.
const (
	fleetWorkers = 2
	// fleetJobDuration is the virtual drive of every job; each job runs a
	// baseline and a faulted leg.
	fleetJobDuration = 8 * time.Second
	// missRoundSeconds sizes the write path: one fresh job per worker for
	// every this many seconds of the window, so a 10 s window runs four.
	// The count depends on the window alone, never on how fast the host
	// is, so a seed always runs the same jobs.
	missRoundSeconds = 5
	// hitsPerSecond sizes the gated read path: this many cache hits per
	// second of the window.
	hitsPerSecond = 100
	// fleetRate is the traced open loop's arrival rate, requests/second.
	fleetRate = 20.0
	// journalProbes is how many report-sized records the traced run
	// appends and fsyncs to time the journal on its own.
	journalProbes = 200
	// spinWindow is how early the open loop stops sleeping and starts
	// yielding: the runtime's timers overshoot by up to a millisecond,
	// which would otherwise count as latency.
	spinWindow = 2 * time.Millisecond
)

// fleetSchedule draws the traced open loop's arrival times for a seed:
// rate×window requests with exponential gaps.
func fleetSchedule(seed uint64, window time.Duration, rate float64) []time.Duration {
	rng := mathx.NewRNG(seed ^ 0xF1EE7)
	out := make([]time.Duration, int(rate*window.Seconds()))
	var t time.Duration
	for i := range out {
		t += time.Duration(rng.Exp(1/rate) * float64(time.Second))
		out[i] = t
	}
	return out
}

// freshSeeds are the fault seeds of the write path's n jobs: nonzero, so
// no job resubmits the hot job's key.
func freshSeeds(seed uint64, n int) []uint64 {
	rng := mathx.NewRNG(seed ^ 0xF2E54)
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64() | 1
	}
	return out
}

// freshJobs is the write path's job count for a window.
func freshJobs(seconds float64) int {
	return fleetWorkers * max(1, int(seconds/missRoundSeconds))
}

// hotJob is the job nearly every request resubmits.
func hotJob() fleet.Job {
	return fleet.Job{Tenant: "bench", Scenario: scenario.NameCrashRecover}
}

// fleetClient talks to the service over loopback HTTP.
type fleetClient struct {
	http *http.Client
	base string
}

func (c *fleetClient) submit(job fleet.Job, wait bool) (fleet.Record, error) {
	body, err := json.Marshal(job)
	if err != nil {
		return fleet.Record{}, err
	}
	url := c.base + "/jobs"
	if wait {
		url += "?wait=1"
	}
	resp, err := c.http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return fleet.Record{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		return fleet.Record{}, fmt.Errorf("POST /jobs: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	// Read the body to the end so the connection goes back to the pool.
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return fleet.Record{}, fmt.Errorf("POST /jobs: %w", err)
	}
	var rec fleet.Record
	if err := json.Unmarshal(body, &rec); err != nil {
		return fleet.Record{}, fmt.Errorf("POST /jobs: decoding record: %w", err)
	}
	return rec, nil
}

func (c *fleetClient) report(id int64) ([]byte, error) {
	resp, err := c.http.Get(fmt.Sprintf("%s/jobs/%d/report", c.base, id))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET report %d: %s: %s", id, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// outcome is one request's measurements.
type outcome struct {
	err            error
	lag            time.Duration // how late the generator sent it
	latency        time.Duration // due time to report received
	submit, report time.Duration
	rec            fleet.Record // final record of a miss
	body           []byte       // report of a miss
}

// runFleet drives a journaled fleet service over loopback HTTP.
func runFleet(r *run) {
	dir, err := os.MkdirTemp("", "bench-fleet-")
	if err != nil {
		r.fail(err)
		return
	}
	defer os.RemoveAll(dir)

	c0 := cpuSeconds()
	svc, err := fleet.New(fleet.Config{Workers: fleetWorkers, Journal: dir, Duration: fleetJobDuration})
	if err != nil {
		r.fail(err)
		return
	}
	defer svc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.fail(err)
		return
	}
	srv := &http.Server{Handler: fleet.Handler(svc)}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "bench: fleet server: %v\n", err)
		}
	}()
	transport := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
	defer transport.CloseIdleConnections()
	client := &fleetClient{http: &http.Client{Transport: transport, Timeout: time.Minute}, base: "http://" + ln.Addr().String()}

	// Set-up ends with the hot job computed once: service start, the
	// process's world and HD-map build, and the job's two legs.
	prime, err := client.submit(hotJob(), true)
	var primeReport []byte
	if err == nil {
		primeReport, err = client.report(prime.ID)
	}
	if !r.check(err == nil && prime.State == fleet.StateDone, "priming job: state %q, %v", prime.State, err) {
		return
	}
	r.set("setup_s", cpuSeconds()-c0)
	r.outputs["fleet.report"] = fmt.Sprintf("%x", sha256.Sum256(primeReport))
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Write path.
	c1, w1 := cpuSeconds(), time.Now()
	misses := missRequests(ctx, client, svc, freshSeeds(r.seed, freshJobs(r.seconds)))
	missWall := time.Since(w1)
	simulated := 2 * fleetJobDuration.Seconds() * float64(len(misses))
	r.set("host.sim_s_per_wall_s", simulated/missWall.Seconds())
	var e2e []float64
	fresh := sha256.New()
	for i, m := range misses {
		if r.check(m.err == nil, "fresh job %d: %v", i, m.err) {
			e2e = append(e2e, m.rec.E2EP99)
			fresh.Write(m.body)
		}
	}
	r.outputs["fleet.fresh"] = fmt.Sprintf("%x", fresh.Sum(nil))

	// Read path.
	n := int(hitsPerSecond * r.seconds)
	if r.trace {
		window := time.Duration(r.seconds * float64(time.Second))
		openLoop(r, client, primeReport, fleetSchedule(r.seed, window, fleetRate))
		r.set("fleet.hit_cpu_ms_p50", percentile(closedLoop(r, client, primeReport, n), 50))
		traceFleet(r, svc, misses, len(primeReport))
		return
	}
	hitCPU := closedLoop(r, client, primeReport, n)
	r.set("sim_s_per_cpu_s", simulated/(cpuSeconds()-c1))
	if len(e2e) == len(misses) {
		r.set("latency_p50_ms", percentile(e2e, 50))
		r.set("latency_tail_ms", percentile(e2e, 99))
	}
	r.set("heap_live_mb", heapLiveMB())
	r.logf("%d fresh jobs in %.1f s wall, worst-path p99 %.3f ms; %d cache hits, CPU p50 %.3f ms each (not gated)",
		len(misses), missWall.Seconds(), e2e, n, percentile(hitCPU, 50))
}

// closedLoop sends n cache hits one at a time and returns the process
// CPU, in ms, that passes between sending each and receiving its report.
func closedLoop(r *run, client *fleetClient, want []byte, n int) []float64 {
	cpu := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		c := cpuSeconds()
		o := hitRequest(client, want, time.Now())
		if r.check(o.err == nil, "request %d: %v", i, o.err) {
			cpu = append(cpu, 1e3*(cpuSeconds()-c))
		}
	}
	return cpu
}

// openLoop sends the schedule's requests at their due times, each in its
// own goroutine over at most two connections, and reports their
// wall-clock latency from the due time.
func openLoop(r *run, client *fleetClient, want []byte, sched []time.Duration) {
	outs := make([]outcome, len(sched))
	start := time.Now()
	var wg sync.WaitGroup
	for i, at := range sched {
		due := start.Add(at)
		waitUntil(due)
		lag := time.Since(due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = hitRequest(client, want, due)
			outs[i].lag = lag
		}()
	}
	wg.Wait()
	var hits, lags, submits, reports []float64
	for i, o := range outs {
		lags = append(lags, ms(o.lag))
		if r.check(o.err == nil, "request %d: %v", i, o.err) {
			hits = append(hits, ms(o.latency))
			submits = append(submits, ms(o.submit))
			reports = append(reports, ms(o.report))
		}
	}
	r.set("fleet.hit_p50_ms", percentile(hits, 50))
	r.set("fleet.hit_p90_ms", percentile(hits, 90))
	r.set("fleet.hit_p99_ms", percentile(hits, 99))
	r.set("fleet.submit_hit_ms_p50", percentile(submits, 50))
	r.set("fleet.report_ms_p50", percentile(reports, 50))
	r.set("gen.lag_p99_ms", percentile(lags, 99))
}

// traceFleet reports the service's own accounting and times the journal.
// The fresh jobs' figures are medians over the batch.
func traceFleet(r *run, svc *fleet.Service, misses []outcome, reportSize int) {
	st := svc.Fleetz()
	var total, queue, run []float64
	for _, m := range misses {
		var ran float64
		for _, at := range m.rec.Attempts {
			ran += at.WallMS
		}
		total = append(total, ms(m.latency))
		queue = append(queue, m.rec.WallMS-ran)
		run = append(run, ran)
	}
	r.set("fleet.miss_ms", median(total))
	r.set("fleet.miss_queue_ms", median(queue))
	r.set("fleet.miss_run_ms", median(run))
	r.set("fleet.cache_hit_ratio", float64(st.Fleet.CacheHits)/float64(st.Fleet.Submitted))
	r.set("fleet.rejected", float64(st.Fleet.Rejected))
	if st.Journal != nil {
		r.set("journal.bytes_per_job", float64(st.Journal.Stats.WALBytes)/float64(st.Fleet.Submitted))
		r.set("journal.syncs_per_job", float64(st.Journal.Stats.Syncs)/float64(st.Fleet.Submitted))
	}
	if err := probeJournal(r, reportSize); err != nil {
		r.fail(err)
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// waitUntil sleeps until spinWindow before t, then yields until t.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// hitRequest resubmits the hot job and fetches its report, which must
// come from the cache and match the priming report byte for byte.
func hitRequest(c *fleetClient, want []byte, due time.Time) outcome {
	t0 := time.Now()
	rec, err := c.submit(hotJob(), false)
	if err != nil {
		return outcome{err: err}
	}
	t1 := time.Now()
	rep, err := c.report(rec.ID)
	t2 := time.Now()
	switch {
	case err != nil:
	case !rec.CacheHit || rec.State != fleet.StateDone:
		err = fmt.Errorf("hot job %d: cache_hit=%v state=%s", rec.ID, rec.CacheHit, rec.State)
	case !bytes.Equal(rep, want):
		err = fmt.Errorf("hot job %d: report differs from the priming report", rec.ID)
	}
	return outcome{err: err, latency: t2.Sub(due), submit: t1.Sub(t0), report: t2.Sub(t1)}
}

// missRequests submits one fresh job per seed asynchronously, so the
// service's workers run them side by side, then waits for each through
// the service and fetches its report.
func missRequests(ctx context.Context, c *fleetClient, svc *fleet.Service, seeds []uint64) []outcome {
	outs := make([]outcome, len(seeds))
	ids := make([]int64, len(seeds))
	admitted := make([]time.Time, len(seeds))
	for i, seed := range seeds {
		job := hotJob()
		job.Seed = seed
		rec, err := c.submit(job, false)
		outs[i].err = err
		ids[i], admitted[i] = rec.ID, time.Now()
	}
	for i, id := range ids {
		if outs[i].err != nil {
			continue
		}
		final, err := svc.Wait(ctx, id)
		if err == nil && final.State != fleet.StateDone {
			err = fmt.Errorf("fresh job %d ended %s: %s", id, final.State, final.Err)
		}
		if err == nil && final.CacheHit {
			err = fmt.Errorf("fresh job %d was served from the cache", id)
		}
		var rep []byte
		if err == nil {
			rep, err = c.report(id)
		}
		outs[i] = outcome{err: err, latency: time.Since(admitted[i]), rec: final, body: rep}
	}
	return outs
}

// probeJournal times the write-ahead log on its own: report-sized
// records appended and fsynced one at a time, as a cache-hit admit does.
func probeJournal(r *run, size int) error {
	dir, err := os.MkdirTemp("", "bench-journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	l, _, err := journal.Open(dir)
	if err != nil {
		return err
	}
	defer l.Close()
	payload := bytes.Repeat([]byte{'r'}, size)
	var appends, syncs []float64
	for i := 0; i < journalProbes; i++ {
		t0 := time.Now()
		if err := l.Append(payload); err != nil {
			return err
		}
		t1 := time.Now()
		if err := l.Sync(); err != nil {
			return err
		}
		appends = append(appends, float64(t1.Sub(t0))/1e3)
		syncs = append(syncs, float64(time.Since(t1))/1e3)
	}
	r.set("journal.append_us_p50", percentile(appends, 50))
	r.set("journal.sync_us_p50", percentile(syncs, 50))
	r.set("journal.sync_us_p95", percentile(syncs, 95))
	return nil
}
