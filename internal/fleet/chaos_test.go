package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/obs/tracez"
	"repro/internal/orchestrator"
)

// The chaos harness: randomized-but-reproducible fault schedules run
// against a real coordinator and N pull workers over HTTP, with faults
// armed across all three layers (worker transport, coordinator mux,
// disk stores, worker execution). Every schedule is derived entirely
// from one int64 seed; a failing seed alone reproduces the failure:
//
//	CHAOS_SEED=17 go test -race -run TestChaosSeedFromEnv ./internal/fleet/
//
// After every schedule the harness asserts the crash-consistency
// contract: the sweep completes, leases granted balance submissions +
// requeues + releases (no job runs more often than its requeue count
// allows), surviving cache entries are byte-identical to a fault-free
// reference run, the orchestrator's lifecycle counters balance, and
// the journal reopens cleanly even with a torn tail.

// chaosCatalog is the bench pool schedules draw from.
var chaosCatalog = []string{
	"403.gcc", "429.mcf", "462.libquantum", "437.leslie3d",
	"400.perlbench", "471.omnetpp", "434.zeusmp", "482.sphinx3",
}

// chaosSchedule is everything a seed determines.
type chaosSchedule struct {
	seed    int64
	benches []string
	workers int
	journal bool
	plans   map[faultinject.Point]faultinject.Plan
}

// buildChaosSchedule derives a schedule from its seed and nothing else.
func buildChaosSchedule(seed int64) chaosSchedule {
	rng := rand.New(rand.NewSource(seed))
	catalog := append([]string(nil), chaosCatalog...)
	rng.Shuffle(len(catalog), func(i, j int) { catalog[i], catalog[j] = catalog[j], catalog[i] })
	s := chaosSchedule{
		seed:    seed,
		benches: catalog[:5+rng.Intn(4)],
		workers: 1 + rng.Intn(3),
		journal: rng.Intn(2) == 0,
		plans:   map[faultinject.Point]faultinject.Plan{},
	}
	// Fire caps are deliberately tight: journal/cache write failures stay
	// under the degraded-mode threshold (3 consecutive), and worst-case
	// total requeues stay under the coordinator's attempt budget even if
	// every fault lands on the same job.
	s.plans[faultinject.PointCacheWrite] = faultinject.Plan{Rate: 0.3, MaxFires: 1 + rng.Intn(2), Tear: 0.5}
	s.plans[faultinject.PointCacheRead] = faultinject.Plan{Rate: 0.2, MaxFires: 1, Tear: 0.6}
	s.plans[faultinject.PointJournalAppend] = faultinject.Plan{Rate: 0.3, MaxFires: 1 + rng.Intn(2)}
	s.plans[faultinject.PointCoordHTTP] = faultinject.Plan{Rate: 0.04, MaxFires: 2, Status: 503}
	s.plans[faultinject.PointWorkerCrash] = faultinject.Plan{Rate: 0.15, MaxFires: 1 + rng.Intn(2)}
	s.plans[faultinject.PointWorkerStall] = faultinject.Plan{Rate: 0.1, MaxFires: 1}
	whttp := faultinject.Plan{Rate: 0.05, MaxFires: 2}
	switch rng.Intn(3) {
	case 0:
		whttp.AfterSend = true // POST lands, response lost: the ambiguous failure
	case 1:
		whttp.DropBody = true // body severed mid-read
	default:
		whttp.Status = 503
	}
	s.plans[faultinject.PointWorkerHTTP] = whttp
	return s
}

// arm builds the schedule's injector: one shared instance so fire caps
// bound the whole run and one Describe() names the full experiment.
func (s chaosSchedule) arm() *faultinject.Injector {
	in := faultinject.New(s.seed)
	for p, plan := range s.plans {
		in.Enable(p, plan)
	}
	return in
}

// chaosClient is a worker HTTP client whose transport injects the
// schedule's worker_http faults.
func chaosClient(in *faultinject.Injector) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &faultinject.Transport{
			Base:     http.DefaultTransport,
			Injector: in,
			Point:    faultinject.PointWorkerHTTP,
		},
	}
}

// chaosReference runs the same sweep fault-free and in-process,
// producing the cache directory the fleet run must byte-match.
func chaosReference(t *testing.T, benches []string, dir string) {
	t.Helper()
	o := orchestrator.New(orchestrator.Config{
		Workers: 2,
		Cache:   orchestrator.NewCache(0, dir),
		Run: func(ctx context.Context, j orchestrator.Job, progress func(done, total uint64)) (*orchestrator.JobResult, error) {
			return stubResult(j), nil
		},
	})
	defer o.Close()
	for _, b := range benches {
		rec, err := o.Submit(quickJob(b))
		if err != nil {
			t.Fatalf("reference submit %s: %v", b, err)
		}
		if got := waitDone(t, o, rec.ID); got.Status != orchestrator.StatusDone {
			t.Fatalf("reference job %s: %s %q", b, got.Status, got.Error)
		}
	}
}

// saveChaosArtifacts copies the coordinator journal into
// CHAOS_ARTIFACT_DIR when the schedule failed, for CI upload.
func saveChaosArtifacts(t *testing.T, seed int64, journalPath string) {
	dir := os.Getenv("CHAOS_ARTIFACT_DIR")
	if dir == "" || !t.Failed() || journalPath == "" {
		return
	}
	data, err := os.ReadFile(journalPath)
	if err != nil {
		t.Logf("chaos artifact: read journal: %v", err)
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("chaos artifact: %v", err)
		return
	}
	out := filepath.Join(dir, fmt.Sprintf("chaos-journal-seed-%d.jsonl", seed))
	if err := os.WriteFile(out, data, 0o644); err != nil {
		t.Logf("chaos artifact: %v", err)
		return
	}
	t.Logf("chaos artifact: journal saved to %s", out)
}

// runChaosSchedule executes one seeded schedule end to end and asserts
// every chaos invariant.
func runChaosSchedule(t *testing.T, seed int64) {
	t.Helper()
	s := buildChaosSchedule(seed)
	in := s.arm()
	// Every fire must surface as exactly one flight-recorder event, so a
	// post-mortem can correlate each lnuca_fault_injected_total increment
	// to the trace it hit (production wires this in cmd/lnucad the same
	// way).
	flight := tracez.NewFlightRecorder(0, 0, 0)
	in.OnEvent(func(e faultinject.Event) { flight.Event("fault", e.TraceID, string(e.Point)) })
	t.Logf("chaos %s jobs=%d workers=%d journal=%v (reproduce: CHAOS_SEED=%d)",
		in.Describe(), len(s.benches), s.workers, s.journal, seed)

	refDir := t.TempDir()
	chaosReference(t, s.benches, refDir)

	fleetDir := t.TempDir()
	var journalPath string
	var journal *orchestrator.Journal
	if s.journal {
		journalPath = filepath.Join(t.TempDir(), "journal.jsonl")
		j, err := orchestrator.OpenJournal(journalPath)
		if err != nil {
			t.Fatalf("open journal: %v", err)
		}
		j.SetFaults(in)
		journal = j
	}
	t.Cleanup(func() { saveChaosArtifacts(t, seed, journalPath) })

	var executions atomic.Uint64
	reg := obs.NewRegistry()
	cache := orchestrator.NewCache(0, fleetDir)
	cache.SetFaults(in)
	orch := orchestrator.NewQueue(orchestrator.Config{
		Cache:   cache,
		Journal: journal,
	})
	coord := NewCoordinator(orch, Config{
		LeaseTTL:       120 * time.Millisecond,
		MaxAttempts:    10,
		RetryBaseDelay: 2 * time.Millisecond,
		RetryMaxDelay:  50 * time.Millisecond,
		Registry:       reg,
	})
	srv := httptest.NewServer(faultinject.Middleware(coord.Handler(), in, faultinject.PointCoordHTTP))

	wctx, stopWorkers := context.WithCancel(context.Background())
	var workersDone sync.WaitGroup
	for i := 0; i < s.workers; i++ {
		w := NewWorker(WorkerConfig{
			Coordinator:  srv.URL,
			Name:         fmt.Sprintf("chaos-w%d", i),
			PollInterval: 2 * time.Millisecond,
			DrainGrace:   time.Second,
			Faults:       in,
			Client:       chaosClient(in),
			Run: func(ctx context.Context, j orchestrator.Job, progress func(done, total uint64)) (*orchestrator.JobResult, error) {
				executions.Add(1)
				progress(500, 1000)
				return stubResult(j), nil
			},
		})
		workersDone.Add(1)
		go func() { defer workersDone.Done(); _ = w.Run(wctx) }()
	}
	closed := false
	closeAll := func() {
		if closed {
			return
		}
		closed = true
		orch.Close()
		stopWorkers()
		workersDone.Wait()
		coord.Close()
		srv.Close()
		if journal != nil {
			_ = journal.Close()
		}
	}
	defer closeAll()

	// ---- The sweep, under fire. ----
	submitted := map[string]bool{}
	ids := make([]string, 0, len(s.benches))
	for _, b := range s.benches {
		job, err := quickJob(b).Normalize()
		if err != nil {
			t.Fatalf("normalize %s: %v", b, err)
		}
		submitted[job.Key()] = true
		rec, err := orch.Submit(job)
		if err != nil {
			t.Fatalf("seed=%d: submit %s: %v", seed, b, err)
		}
		ids = append(ids, rec.ID)
	}
	for i, id := range ids {
		rec := waitDone(t, orch, id)
		if rec.Status != orchestrator.StatusDone {
			t.Fatalf("seed=%d: job %s (%s): status %s, error %q",
				seed, id, s.benches[i], rec.Status, rec.Error)
		}
	}

	// ---- Invariants. ----
	checkBalance(t, orch)
	requeues := coord.requeues.Value()
	releases := coord.releases.Value()
	granted := coord.leasesGranted.Value()
	if want := uint64(len(s.benches)) + requeues + releases; granted != want {
		t.Errorf("seed=%d: leases granted = %d, want %d (jobs %d + requeues %d + releases %d)",
			seed, granted, want, len(s.benches), requeues, releases)
	}
	if got := executions.Load(); got > granted {
		t.Errorf("seed=%d: executions = %d > leases granted %d — a job ran without a lease",
			seed, got, granted)
	}
	if m := orch.Metrics(); m.Degraded {
		t.Errorf("seed=%d: degraded mode tripped under a bounded schedule (fire caps are wrong)", seed)
	}
	var totalFires uint64
	for p := range s.plans {
		totalFires += in.Fires(p)
	}
	faultEvents := 0
	for _, e := range flight.Events("") {
		if e.Kind == "fault" {
			faultEvents++
		}
	}
	if uint64(faultEvents) != totalFires {
		t.Errorf("seed=%d: flight recorder holds %d fault events for %d fires — injections must be one-to-one correlatable",
			seed, faultEvents, totalFires)
	}

	// Surviving cache entries must be byte-identical to the fault-free
	// reference run. (A capped write fault may leave an entry missing —
	// that costs a recomputation, never a divergent byte.)
	entries, err := os.ReadDir(fleetDir)
	if err != nil {
		t.Fatalf("read fleet cache dir: %v", err)
	}
	compared := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		fb, err := os.ReadFile(filepath.Join(fleetDir, e.Name()))
		if err != nil {
			t.Fatalf("fleet cache entry %s: %v", e.Name(), err)
		}
		rb, err := os.ReadFile(filepath.Join(refDir, e.Name()))
		if err != nil {
			t.Fatalf("seed=%d: fleet cache has %s but the reference run does not: %v", seed, e.Name(), err)
		}
		if string(fb) != string(rb) {
			t.Errorf("seed=%d: cache entry %s differs from fault-free reference:\nfleet: %s\nref:   %s",
				seed, e.Name(), fb, rb)
		}
		compared++
	}
	if compared == 0 {
		t.Errorf("seed=%d: no cache entries survived at all — write faults are uncapped?", seed)
	}

	// The journal must reopen cleanly after the run — including with a
	// freshly torn tail, the simulated crash-mid-append.
	if journalPath != "" {
		closeAll()
		tear := make([]byte, 1+int(seed%61))
		for i := range tear {
			tear[i] = byte('a' + (int(seed)+i)%26)
		}
		f, err := os.OpenFile(journalPath, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatalf("tear journal: %v", err)
		}
		if _, err := f.Write(tear); err != nil {
			t.Fatalf("tear journal: %v", err)
		}
		f.Close()
		j2, err := orchestrator.OpenJournal(journalPath)
		if err != nil {
			t.Fatalf("seed=%d: journal did not reopen after torn tail: %v", seed, err)
		}
		for _, req := range j2.Pending() {
			job, err := req.Job()
			if err != nil {
				t.Errorf("seed=%d: recovered pending entry does not parse: %v", seed, err)
				continue
			}
			if !submitted[job.Key()] {
				t.Errorf("seed=%d: recovered pending key %s was never submitted", seed, job.Key())
			}
		}
		j2.Close()
	}
}

// TestChaosSchedules runs the fixed-seed regression battery. Each seed
// is a subtest so a failure names its reproduction seed directly.
func TestChaosSchedules(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChaosSchedule(t, seed)
		})
	}
}

// TestChaosSeedFromEnv reruns one schedule named by CHAOS_SEED — the
// reproduction entry point CI failure output points at.
func TestChaosSeedFromEnv(t *testing.T) {
	v := os.Getenv("CHAOS_SEED")
	if v == "" {
		t.Skip("CHAOS_SEED not set")
	}
	seed, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		t.Fatalf("CHAOS_SEED=%q: %v", v, err)
	}
	runChaosSchedule(t, seed)
}

// TestChaosScheduleDeterministicFromSeed pins the reproducibility
// contract: the same seed derives the same jobs, topology and armed
// plans, and a different seed does not.
func TestChaosScheduleDeterministicFromSeed(t *testing.T) {
	for _, seed := range []int64{3, 11, 1017} {
		a, b := buildChaosSchedule(seed), buildChaosSchedule(seed)
		if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
			t.Fatalf("seed %d derived two different schedules:\n%+v\n%+v", seed, a, b)
		}
		if da, db := a.arm().Describe(), b.arm().Describe(); da != db {
			t.Fatalf("seed %d armed two different injectors:\n%s\n%s", seed, da, db)
		}
	}
	if fmt.Sprintf("%+v", buildChaosSchedule(3)) == fmt.Sprintf("%+v", buildChaosSchedule(4)) {
		t.Fatal("distinct seeds derived identical schedules")
	}
}
