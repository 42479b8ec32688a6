package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	lightnuca "repro"
	"repro/internal/exp"
	"repro/internal/workload"
)

// Fleet shape and job size of service-fleet. Jobs are tiny and use only
// the mesh-free hierarchies, so a fresh job's latency is almost all
// queue, lease and poll overhead.
const (
	fleetWorkers   = 2
	jobWarmup      = 500
	jobMeasure     = 3000
	fleetSetups    = 15  // fleets spawned per run; setup_s is their median
	maxRounds      = 999 // keeps per-round request seeds distinct
	spanBatch      = 8   // rounds between span fetches (the recorder keeps 512 traces)
	fleetStartWait = 30 * time.Second
	// workerPollInterval is lnucad's default idle lease-poll interval.
	workerPollInterval = 100 * time.Millisecond
)

// sweepOf is one round's fresh 16-point sweep: the conventional L2 and
// the 2-, 3- and 4-level L-NUCA over the suite.
func sweepOf(seed uint64) lightnuca.Sweep {
	return lightnuca.Sweep{
		Hierarchies: []string{"conventional", "ln+l3"},
		Levels:      []int{2, 3, 4},
		Benchmarks:  suite,
		Warmup:      jobWarmup,
		Measure:     jobMeasure,
		Seed:        seed,
	}
}

// jobOf is one round's fresh single job.
func jobOf(round int, seed uint64) lightnuca.Request {
	h := "conventional"
	if round%2 == 1 {
		h = "ln+l3"
	}
	return lightnuca.Request{
		Hierarchy: h,
		Benchmark: suite[round%len(suite)],
		Warmup:    jobWarmup,
		Measure:   jobMeasure,
		Seed:      seed,
	}
}

// roundSeeds gives round r of a run its single-job and sweep seeds:
// distinct across rounds and from each other, and never 0 (which the
// service reads as 1).
func roundSeeds(seed uint64, round int) (job, sweep uint64) {
	base := 2 * (seed*(maxRounds+1) + uint64(round))
	return base + 1, base + 2
}

// fleetProcs is one running coordinator plus its workers.
type fleetProcs struct {
	addr  string
	procs []*exec.Cmd
	logs  []*os.File
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startFleet spawns a coordinator with a fresh on-disk cache and its
// workers, and returns once the coordinator counts every worker active,
// with the time that took.
func startFleet(ctx context.Context, binDir, dir string) (*fleetProcs, time.Duration, error) {
	lnucad := filepath.Join(binDir, "lnucad")
	if _, err := os.Stat(lnucad); err != nil {
		return nil, 0, fmt.Errorf("lnucad binary: %w", err)
	}
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	f := &fleetProcs{addr: fmt.Sprintf("127.0.0.1:%d", port)}
	start := time.Now()
	deadline := start.Add(fleetStartWait)
	// The coordinator starts first and the workers once it answers, as a
	// deployment script would: a worker whose first lease poll is refused
	// sleeps a whole poll interval, which would make set-up time bimodal.
	if err := f.spawn(lnucad, dir, "-fleet", "-workers", strconv.Itoa(fleetWorkers), "-addr", f.addr,
		"-cache", filepath.Join(dir, "cache"), "-log-level", "warn"); err != nil {
		return nil, 0, err
	}
	if err := f.await(ctx, deadline, func(promMetrics) bool { return true }); err != nil {
		return nil, 0, err
	}
	for i := 0; i < fleetWorkers; i++ {
		if err := f.spawn(lnucad, dir, "-worker", "-coordinator", "http://"+f.addr,
			"-worker-name", fmt.Sprintf("w%d", i+1), "-log-level", "warn"); err != nil {
			return nil, 0, err
		}
	}
	err = f.await(ctx, deadline, func(m promMetrics) bool {
		return m.sum("lnuca_fleet_workers_active", "") >= fleetWorkers
	})
	if err != nil {
		return nil, 0, err
	}
	return f, time.Since(start), nil
}

// spawn starts one lnucad process of the fleet, logging to dir. On
// failure it stops the processes already started.
func (f *fleetProcs) spawn(lnucad, dir string, args ...string) error {
	log, err := os.Create(filepath.Join(dir, fmt.Sprintf("proc%d.log", len(f.procs))))
	if err != nil {
		f.stop()
		return err
	}
	cmd := exec.Command(lnucad, args...)
	cmd.Stdout, cmd.Stderr = log, log
	// The kernel kills a child whose parent dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		f.stop()
		return fmt.Errorf("start lnucad %v: %w", args, err)
	}
	f.logs = append(f.logs, log)
	f.procs = append(f.procs, cmd)
	return nil
}

// await polls the coordinator's /metrics until ready accepts a scrape.
// On timeout it stops the fleet.
func (f *fleetProcs) await(ctx context.Context, deadline time.Time, ready func(promMetrics) bool) error {
	for {
		m, err := scrape(ctx, f.addr)
		if err == nil && ready(m) {
			return nil
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			f.stop()
			return fmt.Errorf("fleet at %s not ready after %v (last scrape error: %v)", f.addr, fleetStartWait, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// peakRSS sums the coordinator's and workers' peak resident sets.
func (f *fleetProcs) peakRSS() (float64, error) {
	var total float64
	for _, p := range f.procs {
		v, err := vmHWM(strconv.Itoa(p.Process.Pid))
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// stop kills every process of the fleet and waits for each to end.
func (f *fleetProcs) stop() {
	for _, p := range f.procs {
		_ = p.Process.Kill()
	}
	for _, p := range f.procs {
		_ = p.Wait()
	}
	f.procs = nil
	for _, l := range f.logs {
		l.Close()
	}
	f.logs = nil
}

// promMetrics is one Prometheus text scrape: sample lines keyed by the
// metric name, each with its raw label set.
type promMetrics map[string][]promSample

type promSample struct {
	labels string
	value  float64
}

func scrape(ctx context.Context, addr string) (promMetrics, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/metrics?format=prometheus", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseProm(resp.Body)
}

func parseProm(r io.Reader) (promMetrics, error) {
	m := promMetrics{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		name, labels := line[:sp], ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name, labels = name[:i], name[i:]
		}
		m[name] = append(m[name], promSample{labels, v})
	}
	return m, sc.Err()
}

// sum totals a metric's samples whose label set contains match.
func (m promMetrics) sum(name, match string) float64 {
	var t float64
	for _, s := range m[name] {
		if strings.Contains(s.labels, match) {
			t += s.value
		}
	}
	return t
}

// countingTransport counts the client's job status polls.
type countingTransport struct {
	inner http.RoundTripper
	polls int
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") {
		c.polls++
	}
	return c.inner.RoundTrip(r)
}

// freshJob is a fresh single job of a traced round, kept for its spans.
type freshJob struct {
	id      string
	latency float64 // ms
	pollLag float64 // ms, finished_at to the client seeing done
	polls   int
}

// checked is one fresh result awaiting its in-process reference.
type checked struct {
	req lightnuca.Request
	res lightnuca.Result
}

// serviceRun accumulates one service-fleet run.
type serviceRun struct {
	jobMs, hitMs     []float64
	roundS           []float64
	sweepPoints      int
	sweepS           float64
	jobMIPS          []float64
	fresh            []checked
	traced           []freshJob
	spans            map[string]jobSpans
	attempted, fails int
	errors           []string
}

func (s *serviceRun) fail(format string, args ...interface{}) {
	s.attempted++
	s.fails++
	if len(s.errors) < maxCheckErrors {
		s.errors = append(s.errors, fmt.Sprintf(format, args...))
	}
}

// addFresh records a simulated (not cached) result for the reference
// check and its measured-window MIPS, as the executing worker timed it.
func (s *serviceRun) addFresh(req lightnuca.Request, res lightnuca.Result) {
	s.fresh = append(s.fresh, checked{req, res})
	if res.Phases != nil {
		s.jobMIPS = append(s.jobMIPS, res.Phases.MIPS)
	}
}

func runService(ctx context.Context, o options, res *result, rep *report) error {
	var setups []float64
	var f *fleetProcs
	defer func() {
		if f != nil {
			f.stop()
		}
	}()
	for i := 0; i < fleetSetups; i++ {
		if f != nil {
			f.stop()
		}
		var d time.Duration
		var err error
		f, d, err = startFleet(ctx, o.binDir, filepath.Join(o.workDir, fmt.Sprintf("fleet%d", i)))
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	rep.add("service-fleet seed=%d coordinator=%s workers=%d job=%d+%d", o.seed, f.addr, fleetWorkers, jobWarmup, jobMeasure)

	client := lightnuca.NewClient(f.addr)
	var counter *countingTransport
	if o.trace {
		counter = &countingTransport{inner: http.DefaultTransport}
		client.HTTPClient = &http.Client{Transport: counter}
		client.EnableTracing()
	}
	before, err := scrape(ctx, f.addr)
	if err != nil {
		return err
	}
	run := &serviceRun{spans: map[string]jobSpans{}}
	// Think time between rounds, uniform over one worker poll interval,
	// puts each fresh job at a random phase of the workers' idle polling
	// instead of locking it to the end of the previous sweep. The wait
	// for a lease then spans the whole 100 ms poll interval while the
	// client sees the result only at its next 50 ms status poll, so a
	// fresh job reads about 50, 100 or 150 ms and its median jumps
	// between those values from run to run; job_ms_mean averages them.
	think := rand.New(rand.NewSource(int64(o.seed)))
	budget := time.Duration(o.seconds) * time.Second
	start := time.Now()
	pending := 0
	for round := 0; round < maxRounds && (round < 2 || time.Since(start) < budget); round++ {
		if err := sleepCtx(ctx, time.Duration(think.Int63n(int64(workerPollInterval)))); err != nil {
			return err
		}
		if err := serviceRound(ctx, client, counter, o.seed, round, run); err != nil {
			return err
		}
		if o.trace {
			pending++
			if pending == spanBatch {
				fetchSpans(ctx, f.addr, run)
				pending = 0
			}
		}
	}
	elapsed := time.Since(start)
	if o.trace {
		fetchSpans(ctx, f.addr, run)
	}
	after, err := scrape(ctx, f.addr)
	if err != nil {
		return err
	}
	rss, err := f.peakRSS()
	if err != nil {
		return err
	}
	f.stop()
	f = nil
	rep.add("  rounds=%d in %.2fs, fresh results=%d, fleet set-ups=%d", len(run.roundS), elapsed.Seconds(), len(run.fresh), len(setups))
	rep.add("  fresh job latency by 50 ms client poll: %s", buckets(run.jobMs, 50))

	checkReferences(ctx, run)

	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["peak_rss_mb"] = metric{rss, "MiB"}
	res.Metrics["job_ms_mean"] = metric{mean(run.jobMs), "ms"}
	res.Metrics["job_ms_p50"] = metric{median(run.jobMs), "ms"}
	res.Metrics["hit_ms_p50"] = metric{median(run.hitMs), "ms"}
	res.Metrics["matrix_s"] = metric{mean(run.roundS), "s"}
	if run.sweepS > 0 {
		res.Metrics["sweep_jobs_per_s"] = metric{float64(run.sweepPoints) / run.sweepS, "jobs/s"}
	}
	if len(run.jobMIPS) > 0 {
		// The median job: a worker sharing two cores with the coordinator,
		// the client and the other worker is preempted now and then.
		res.Metrics["mips"] = metric{median(run.jobMIPS), "Minstr/s"}
	}
	tailMetric(rep, res, "job_ms_tail", run.jobMs)
	tailMetric(rep, res, "hit_ms_tail", run.hitMs)
	if o.trace {
		serviceLayers(rep, res, run, before, after)
	}
	res.Attempted, res.Failed = run.attempted, run.fails
	res.Correct = run.fails == 0
	for _, e := range run.errors {
		rep.add("  CHECK FAILED: %s", e)
	}
	failFrac(rep, res)
	return nil
}

// serviceRound is one closed-loop round: a fresh single job, the same
// request again (a cache read), then a fresh sweep.
func serviceRound(ctx context.Context, c *lightnuca.Client, counter *countingTransport, seed uint64, round int, run *serviceRun) error {
	jobSeed, sweepSeed := roundSeeds(seed, round)
	req := jobOf(round, jobSeed)
	roundStart := time.Now()

	// 1. Fresh job. The traced run makes Client.Run's own two calls,
	// Submit then Wait, to keep the job's record for its spans.
	t0 := time.Now()
	var fresh lightnuca.Result
	var err error
	if counter == nil {
		fresh, err = c.Run(ctx, req)
	} else {
		fresh, err = tracedRun(ctx, c, counter, req, t0, run)
	}
	freshOK := false
	switch {
	case err != nil:
		run.fail("round %d fresh job: %v", round, err)
	case fresh.Cached:
		run.fail("round %d fresh job was served from cache", round)
	default:
		run.jobMs = append(run.jobMs, msSince(t0))
		run.addFresh(req, fresh)
		freshOK = true
	}

	// 2. The identical request, which the result cache must serve.
	t0 = time.Now()
	hit, err := c.Run(ctx, req)
	switch {
	case err != nil:
		run.fail("round %d resubmit: %v", round, err)
	case !hit.Cached:
		run.fail("round %d resubmit was not a cache hit", round)
	default:
		run.hitMs = append(run.hitMs, msSince(t0))
		if freshOK && !sameResult(hit, fresh) {
			run.fail("round %d cached result differs from the fresh one", round)
		} else {
			run.attempted++
		}
	}

	// 3. A fresh sweep.
	sw := sweepOf(sweepSeed)
	reqs, err := sw.Expand()
	if err != nil {
		return err
	}
	byKey := map[string]lightnuca.Request{}
	for _, r := range reqs {
		k, err := r.Key()
		if err != nil {
			return err
		}
		byKey[k] = r
	}
	t0 = time.Now()
	st, err := c.RunSweep(ctx, sw, nil)
	sweepS := time.Since(t0).Seconds()
	if err != nil {
		run.fail("round %d sweep: %v", round, err)
	} else {
		run.sweepS += sweepS
		run.sweepPoints += len(st.Jobs)
		if len(st.Jobs) != len(reqs) {
			run.fail("round %d sweep returned %d points for %d requests", round, len(st.Jobs), len(reqs))
		}
		for _, j := range st.Jobs {
			r, ok := byKey[j.Key]
			if !ok {
				run.fail("round %d sweep point %s has a key no request of the sweep has", round, j.ID)
				continue
			}
			if j.Status != lightnuca.StatusDone || j.Result == nil || j.Cached {
				run.fail("round %d sweep point %s: status %s cached=%v %s", round, j.ID, j.Status, j.Cached, j.Error)
				continue
			}
			res, err := recordResult(j)
			if err != nil {
				run.fail("round %d sweep point %s: %v", round, j.ID, err)
				continue
			}
			run.addFresh(r, res)
		}
	}
	run.roundS = append(run.roundS, time.Since(roundStart).Seconds())
	return nil
}

// tracedRun is Client.Run spelled out (Submit, then Wait unless the
// submission is already terminal) keeping the job record.
func tracedRun(ctx context.Context, c *lightnuca.Client, counter *countingTransport, req lightnuca.Request, t0 time.Time, run *serviceRun) (lightnuca.Result, error) {
	polls := counter.polls
	rec, err := c.Submit(ctx, req)
	if err != nil {
		return lightnuca.Result{}, err
	}
	if !rec.Status.Terminal() {
		if rec, err = c.Wait(ctx, rec.ID, nil); err != nil {
			return lightnuca.Result{}, err
		}
	}
	seen := time.Now()
	fj := freshJob{id: rec.ID, latency: msSince(t0), polls: counter.polls - polls}
	if rec.Timeline.FinishedAt != nil {
		fj.pollLag = float64(seen.Sub(*rec.Timeline.FinishedAt)) / 1e6
	}
	run.traced = append(run.traced, fj)
	return recordResult(rec)
}

// recordResult converts a terminal job record the way Client.Run does.
func recordResult(rec lightnuca.JobRecord) (lightnuca.Result, error) {
	if rec.Status != lightnuca.StatusDone || rec.Result == nil {
		return lightnuca.Result{}, fmt.Errorf("job %s: status %s %s", rec.ID, rec.Status, rec.Error)
	}
	r := lightnuca.Result{
		Key:       rec.Key,
		Cached:    rec.Cached,
		Benchmark: rec.Result.Benchmark,
		IPC:       rec.Result.IPC,
		Cycles:    rec.Result.Cycles,
		Stats:     rec.Result.Stats,
		Phases:    rec.Result.Phases,
	}
	return r, nil
}

func sameResult(a, b lightnuca.Result) bool {
	return a.IPC == b.IPC && a.Cycles == b.Cycles && a.Stats != nil && b.Stats != nil &&
		statsDigest(a.Stats) == statsDigest(b.Stats)
}

// checkReferences recomputes every fresh service result in process
// with exp.RunOneCtx and compares IPC, cycles and the statistics
// digest. It runs after the timed phase, on two goroutines.
func checkReferences(ctx context.Context, run *serviceRun) {
	type verdict struct {
		ok  bool
		msg string
	}
	out := make([]verdict, len(run.fresh))
	work := make(chan int)
	done := make(chan struct{})
	for w := 0; w < 2; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := range work {
				out[i].ok, out[i].msg = checkOne(ctx, run.fresh[i])
			}
		}()
	}
	for i := range run.fresh {
		work <- i
	}
	close(work)
	<-done
	<-done
	for _, v := range out {
		if v.ok {
			run.attempted++
		} else {
			run.fail("%s", v.msg)
		}
	}
}

func checkOne(ctx context.Context, c checked) (bool, string) {
	job, err := c.req.Job()
	if err == nil {
		job, err = job.Normalize()
	}
	if err != nil {
		return false, fmt.Sprintf("%+v: %v", c.req, err)
	}
	prof, ok := workload.ByName(job.Benchmark)
	if !ok {
		return false, fmt.Sprintf("%+v: unknown benchmark", c.req)
	}
	ref := exp.RunOneCtx(ctx, job.Spec(), prof, job.Mode, job.Seed, nil)
	if ref.Err != nil {
		return false, fmt.Sprintf("%+v: reference run: %v", c.req, ref.Err)
	}
	if c.res.IPC != ref.IPC || c.res.Cycles != ref.Cycles || c.res.Stats == nil ||
		statsDigest(c.res.Stats) != statsDigest(ref.Stats) {
		return false, fmt.Sprintf("%s %s seed %d: service IPC %v cycles %d, reference IPC %v cycles %d",
			c.req.Hierarchy, c.req.Benchmark, c.req.Seed, c.res.IPC, c.res.Cycles, ref.IPC, ref.Cycles)
	}
	return true, ""
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// buckets renders how many samples fall in each width-wide bucket.
func buckets(xs []float64, width float64) string {
	counts := map[int]int{}
	top := 0
	for _, x := range xs {
		b := int(x / width)
		counts[b]++
		if b > top {
			top = b
		}
	}
	var parts []string
	for b := 0; b <= top; b++ {
		if counts[b] > 0 {
			parts = append(parts, fmt.Sprintf("[%g,%g):%d", float64(b)*width, float64(b+1)*width, counts[b]))
		}
	}
	return strings.Join(parts, " ")
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
