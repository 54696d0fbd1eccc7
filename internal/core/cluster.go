package core

// This file is the cluster execution tier: the distributed backend of the
// experiment scheduler (schedule.go). The paper lists distributed
// experiments as future work ("e.g., using the Fabric library", §IV-B);
// this tier realizes them over the in-process cluster model of
// internal/remote, keeping the determinism contract of the local
// scheduler intact.
//
// Topology: one worker per configured host (-hosts h1,h2,...). A worker
// is the host-side half of the experiment — a private container cloned
// from the coordinator's (the "ship the image to each host" step), its
// own build system over that container, and a registered "run-cell"
// command standing in for the SSH session that executes one experiment
// cell remotely. The coordinator places (build type, benchmark) cells
// onto idle workers, fetches each cell's shard log from the Host.Run
// output, and merges the shards into the main log in canonical loop
// order — so a cluster run's stored log and CSV are byte-identical to a
// serial local run's. Store replays are resolved on the coordinator
// before placement, in one batched plan-ahead pass (planReplays in
// schedule.go): replayed cells are never dispatched, and the hosts never
// touch the result store.
//
// Self-healing: the placement loop is an event-driven scheduler with a
// per-host state machine (healthy → probation → evicted). A host fault —
// remote.ErrUnreachable, a per-cell deadline expiry (-host-timeout), or
// a provisioning failure — fails the stranded cell over to another host
// and moves the faulty host to probation, where an exponential-backoff
// reprobe schedule (on the injected clock, so tests advance it
// deterministically) re-admits it once it answers again; only
// maxProbeFails consecutive failed probes evict it for the run
// (provisioning failures evict immediately: they are deterministic, a
// probe proves nothing). Hosts Ensure'd into the cluster mid-run — a new
// name in -hosts-file, or the serve hosts API — join the pool and absorb
// queued cells. When spare idle workers exist, a cell that has run far
// longer than the run's median cell duration is speculatively duplicated
// on another host, first result wins, loser cancelled (-no-speculate is
// the ablation); losing shards are discarded before the merge and never
// persisted, so byte-identity is unaffected. With -degrade local the
// coordinator executes queued cells itself while every host is down or
// probing, instead of failing the run.
//
// Placement: released cells wait in one shared queue, in release order.
// An idle healthy worker pulls the earliest queued cell it has not
// already attempted, and a failed-over cell goes back at the front, so
// fast hosts absorb more of the run without any load model and
// speculation covers the tail a slow host would otherwise hold.
// Placement order changes under load; merge order never does — shards
// still merge in canonical loop order, so the byte-identity contract
// holds under any load skew.
//
// Only when a cell has no untried non-evicted host left does the run
// fail, with an error that names the cell and every host tried. None of
// the fault handling ever writes to the run log — health transitions,
// failovers, speculation, and the end-of-run per-host summary go to the
// -v stream only, and per-host counters ride on progress events.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fex/internal/buildsys"
	fexclock "fex/internal/clock"
	"fex/internal/installer"
	"fex/internal/remote"
	"fex/internal/runlog"
)

// cmdRunCell is the remote command a worker registers for cell execution
// (the in-process stand-in for "ssh host fex run-cell ...").
const cmdRunCell = "run-cell"

// Fault-tolerance policy constants.
const (
	// probeBaseDelay is the reprobe delay after the first failed probe;
	// each further failure doubles it (the first probe after entering
	// probation is immediate).
	probeBaseDelay = 500 * time.Millisecond
	// maxProbeFails evicts a host after this many consecutive failed
	// probes.
	maxProbeFails = 5
	// defaultProbeTimeout bounds a probe when no -host-timeout is set, so
	// a hung host cannot wedge its own probation probes.
	defaultProbeTimeout = time.Second
	// specFactor and specMinElapsed gate speculation: a cell is a
	// straggler once it has run longer than specFactor× the run's median
	// cell duration and at least specMinElapsed (so µs-scale cells are
	// never speculated on timer jitter).
	specFactor     = 2
	specMinElapsed = 10 * time.Millisecond
	// specMinSamples is the minimum number of completed cells before the
	// median is considered meaningful.
	specMinSamples = 3
)

// errHostProvision marks a worker-provisioning failure surfacing through
// the run-cell handler. It is a host fault, not a cell failure: the cell
// fails over and the broken host is evicted, instead of the run aborting.
var errHostProvision = errors.New("cluster: worker provisioning failed")

// Host phases of the scheduler's per-host state machine.
const (
	hostHealthy = iota
	hostProbation
	hostEvicted
)

// phaseNames renders host phases for status snapshots and -v summaries.
var phaseNames = [...]string{"healthy", "probation", "evicted"}

// clusterWorker is one host's execution side: the remote host handle
// plus, once the first cell lands on it, a private container cloned from
// the coordinator and a build system bound to that container. Every cell
// dispatched to the worker builds and runs against this private state,
// so workers share nothing mutable.
type clusterWorker struct {
	host *remote.Host
	fx   *Fex

	// Provisioning (container clone + build system assembly) is lazy:
	// it runs on the worker's first placement, so spare failover hosts
	// that never receive a cell cost nothing.
	provision sync.Once
	build     *buildsys.System
	provErr   error
}

// buildSystem provisions the worker on first use — the "ship the image
// to the host" step: clone the coordinator container (after its
// CleanBuild, so every worker starts from the same pristine,
// fully-installed state) and assemble a build system over the clone.
func (w *clusterWorker) buildSystem() (*buildsys.System, error) {
	w.provision.Do(func() {
		name := w.host.Name()
		ctr, err := w.fx.ctr.Clone("worker-" + name)
		if err != nil {
			w.provErr = fmt.Errorf("cluster: provision %s: %w", name, err)
			return
		}
		inst, err := installer.New(w.fx.repo, ctr)
		if err != nil {
			w.provErr = fmt.Errorf("cluster: provision %s: %w", name, err)
			return
		}
		fsys, err := ctr.FS()
		if err != nil {
			w.provErr = fmt.Errorf("cluster: provision %s: %w", name, err)
			return
		}
		w.build, w.provErr = newBenchBuildSystem(fsys, inst.IsInstalled, w.fx.registry)
	})
	return w.build, w.provErr
}

// clusterWorkers resolves one worker per configured host, ensuring the
// hosts exist in the framework cluster. The heavyweight per-host state is
// provisioned lazily by buildSystem.
func (fx *Fex) clusterWorkers(hosts []string) ([]*clusterWorker, error) {
	workers := make([]*clusterWorker, 0, len(hosts))
	for _, name := range hosts {
		h, err := fx.cluster.Ensure(name)
		if err != nil {
			return nil, fmt.Errorf("cluster: host %q: %w", name, err)
		}
		workers = append(workers, &clusterWorker{host: h, fx: fx})
	}
	return workers, nil
}

// placement is one dispatch of a cell onto a worker (or, for
// worker == -1, a degrade-local execution on the coordinator). A cell
// can have several concurrent placements when speculation duplicates it.
type placement struct {
	cell   int
	worker int
	// speculative marks a duplicate launched by the straggler detector.
	speculative bool
	// superseded is set by the scheduler loop when another placement of
	// the same cell won the race; this one's result is discarded.
	superseded bool
	// start is the scheduler-clock launch time (straggler detection).
	start time.Time
	// timedOut records that the placement's -host-timeout watchdog fired
	// before the result arrived, classifying the resulting context error
	// as a host fault.
	timedOut atomic.Bool
	// cancel tears the placement down: deadline expiry, speculation
	// losers, and scheduler shutdown all cancel through it.
	cancel context.CancelFunc
	// done closes when the result was handled; it stops the watchdog.
	done chan struct{}
}

// clusterResult is one placement's outcome, reported to the scheduler.
type clusterResult struct {
	pl    *placement
	shard *runlog.Shard
	err   error
}

// probeResult is one probation reprobe's outcome.
type probeResult struct {
	worker int
	err    error
}

// hostState is the scheduler's view of one worker: its state-machine
// phase, consecutive probe failures since entering probation, and the
// counters surfaced through progress events and the -v summary.
type hostState struct {
	phase      int
	probeFails int
	stats      HostStatus
}

// clusterSched is the event-driven cluster scheduler: single-goroutine
// state (queue, per-host phases, placements) driven by channels carrying
// released cells, placement results, probe outcomes, mid-run host joins,
// and speculation timer wakeups.
type clusterSched struct {
	rc     *RunContext
	vrc    *RunContext
	p      *runPlan
	cells  []cell
	fn     func(*RunContext, cell) error
	clk    fexclock.Clock
	failed *atomic.Bool

	// ctx scopes everything the scheduler spawns (placements, watchdogs,
	// probes, timers); cancelled when the loop exits.
	ctx    context.Context
	cancel context.CancelFunc

	workers []*clusterWorker
	state   []*hostState
	// queue holds released cells waiting for a worker, earliest first;
	// failed-over cells re-enter at the front.
	queue      []int
	attempted  []map[string]bool
	idle       []int
	inFlight   int
	stop       bool
	errs       []error
	placements map[int][]*placement
	durations  []time.Duration
	localStats *HostStatus
	localBusy  bool

	results  chan clusterResult
	probes   chan probeResult
	joins    <-chan *remote.Host
	specWake chan struct{}
	specTmr  *fexclock.Timer
}

// runCellsCluster executes the plan's released cells on the cluster
// workers named by rc.Config.Hosts, consuming cell indices from ready as
// the builds goroutine releases them (a cell becomes placeable only after
// its build type's perType action ran on the coordinator). Placement is
// work-conserving: each worker runs one cell at a time, and idle workers
// pull the earliest queued cell they have not yet attempted, so fast
// hosts absorb more of the run. Measured shards land in p.shards at their
// canonical positions; nil shards mark cells that were never dispatched
// because an earlier failure stopped the run. Error semantics mirror
// runCells: after a genuine cell failure no new cells are dispatched, and
// the earliest failed cell in canonical order determines the returned
// error.
func runCellsCluster(rc *RunContext, vrc *RunContext, p *runPlan, ready <-chan int, failed *atomic.Bool, fn func(*RunContext, cell) error) error {
	cells := p.cells
	if p.pendingCount() == 0 {
		for range ready {
		}
		return nil
	}
	// Subscribe before resolving the initial workers so a host Ensure'd
	// concurrently is either resolved below or delivered as a join (known
	// names dedupe in handleJoin).
	joins, unsubscribe := rc.Fex.cluster.Subscribe(len(rc.Config.Hosts) + 16)
	defer unsubscribe()
	workers, err := rc.Fex.clusterWorkers(rc.Config.Hosts)
	if err != nil {
		failed.Store(true) // stop the builds goroutine, then drain
		for range ready {
		}
		return err
	}
	vrc.logf("== cluster: %d cells across %d hosts (%s)",
		p.pendingCount(), len(workers), strings.Join(rc.Config.Hosts, ", "))
	if cfg := rc.Config; cfg.HostTimeout > 0 || cfg.NoSpeculate || cfg.Degrade != "" {
		spec := "on"
		if cfg.NoSpeculate {
			spec = "off"
		}
		degrade := cfg.Degrade
		if degrade == "" {
			degrade = "fail"
		}
		vrc.logf("== cluster: host-timeout %v, speculation %s, degrade %s",
			cfg.HostTimeout, spec, degrade)
	}

	sctx, scancel := context.WithCancel(rc.Context())
	defer scancel()
	s := &clusterSched{
		rc:         rc,
		vrc:        vrc,
		p:          p,
		cells:      cells,
		fn:         fn,
		clk:        rc.Fex.clock,
		failed:     failed,
		ctx:        sctx,
		cancel:     scancel,
		attempted:  make([]map[string]bool, len(cells)),
		errs:       make([]error, len(cells)),
		placements: make(map[int][]*placement),
		results:    make(chan clusterResult),
		probes:     make(chan probeResult),
		joins:      joins,
		specWake:   make(chan struct{}, 1),
	}
	for _, w := range workers {
		if err := s.admitWorker(w); err != nil {
			failed.Store(true) // stop the builds goroutine, then drain
			for range ready {
			}
			return err
		}
	}
	// Tear the run-cell sessions down when the run ends: the handler
	// closures capture the workers' cloned containers and build caches,
	// which must not outlive the run on the long-lived cluster hosts.
	// s.workers includes hosts that joined mid-run.
	defer func() {
		for _, w := range s.workers {
			w.host.UnregisterCommand(cmdRunCell)
		}
	}()

	return s.run(ready)
}

// admitWorker registers the run-cell command on a worker and adds it to
// the placement pool as healthy and idle.
func (s *clusterSched) admitWorker(w *clusterWorker) error {
	// The handler executes one cell against the worker's private build
	// system, buffering its records in a fresh shard, and ships the shard
	// text back as the command's log output. It observes the placement's
	// context (not the run's), so deadline expiry and speculation-loser
	// cancellation stop it between repetitions.
	handler := func(ctx context.Context, job remote.Job) (remote.Output, error) {
		i, err := strconv.Atoi(job.Args["cell"])
		if err != nil || i < 0 || i >= len(s.cells) {
			return remote.Output{}, fmt.Errorf("cluster: bad cell index %q", job.Args["cell"])
		}
		build, err := w.buildSystem()
		if err != nil {
			return remote.Output{}, fmt.Errorf("%w: %v", errHostProvision, err)
		}
		shard := runlog.NewShard()
		cellRC := s.rc.child(shard.Writer(), s.vrc.Verbose)
		cellRC.build = build
		cellRC.ctx = ctx
		if err := s.fn(cellRC, s.cells[i]); err != nil {
			return remote.Output{}, err
		}
		text, err := shard.Text()
		if err != nil {
			return remote.Output{}, err
		}
		return remote.Output{Log: text}, nil
	}
	if err := w.host.RegisterCommand(cmdRunCell, handler); err != nil {
		return err
	}
	s.workers = append(s.workers, w)
	s.state = append(s.state, &hostState{stats: HostStatus{Host: w.host.Name(), State: phaseNames[hostHealthy]}})
	s.idle = append(s.idle, len(s.workers)-1)
	return nil
}

// run is the scheduler's event loop. It interleaves five event sources:
// cells released by the builds goroutine (ready), settled placements,
// probe outcomes, mid-run host joins, and speculation timer wakeups. It
// runs until every released cell settled, no further releases can
// arrive, and nothing is in flight.
func (s *clusterSched) run(ready <-chan int) error {
	defer s.stopSpecTimer()
	readyOpen := true
	for readyOpen || s.inFlight > 0 || (len(s.queue) > 0 && !s.stop) {
		var readyCh <-chan int
		if readyOpen {
			readyCh = ready
		}
		select {
		case i, ok := <-readyCh:
			if !ok {
				readyOpen = false
				continue
			}
			if s.stop {
				continue // drain: a failure already stopped the run
			}
			s.attempted[i] = make(map[string]bool)
			s.queue = append(s.queue, i)
			s.assign()
		case r := <-s.results:
			s.handleResult(r)
		case pr := <-s.probes:
			s.handleProbe(pr)
		case h := <-s.joins:
			s.handleJoin(h)
		case <-s.specWake:
			// Fall through: maybeSpeculate below re-evaluates stragglers.
		}
		s.maybeSpeculate()
	}

	// Drain the per-host log retention (run.py's final "fetch the logs"):
	// every shard already reached the coordinator via the command output.
	for _, w := range s.workers {
		w.host.FetchLogs()
	}
	s.logSummary()

	for _, err := range s.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// launch dispatches one cell onto a worker. When -host-timeout is set, a
// watchdog goroutine on the scheduler clock cancels the placement at the
// deadline and marks it timed out, so the resulting context error is
// classified as a host fault.
func (s *clusterSched) launch(wi, ci int, speculative bool) {
	w := s.workers[wi]
	s.attempted[ci][w.host.Name()] = true
	pctx, cancel := context.WithCancel(s.ctx)
	pl := &placement{
		cell: ci, worker: wi, speculative: speculative,
		start: s.clk.Now(), cancel: cancel, done: make(chan struct{}),
	}
	s.placements[ci] = append(s.placements[ci], pl)
	s.inFlight++
	if d := s.rc.Config.HostTimeout; d > 0 {
		t := s.clk.After(d)
		go func() {
			select {
			case <-t.C:
				pl.timedOut.Store(true)
				cancel()
			case <-pl.done:
				t.Stop()
			}
		}()
	}
	go func() {
		out, err := w.host.Run(pctx, remote.Job{
			Command: cmdRunCell,
			Args:    map[string]string{"cell": strconv.Itoa(ci)},
		})
		res := clusterResult{pl: pl, err: err}
		if err == nil {
			// The command output is the fetched shard log. Validate it
			// before rebuilding the shard: a corrupted transfer must fail
			// the cell with host attribution, never merge garbage records
			// silently into the run log.
			if verr := runlog.ValidateText(out.Log); verr != nil {
				c := s.cells[ci]
				res.err = fmt.Errorf("cluster: host %s: cell %s/%s [%s]: corrupt shard transfer: %w",
					w.host.Name(), c.workload.Suite(), c.workload.Name(), c.buildType, verr)
			} else {
				// Rebuild the shard so it merges through the same Append
				// path as local cells.
				res.shard = runlog.RestoreShard(out.Log)
			}
		}
		s.results <- res
	}()
}

// launchLocal executes one queued cell on the coordinator itself — the
// -degrade local fallback while every host is down or probing. Local
// cells run one at a time (the coordinator is one machine) and flow
// through the same settle path as remote shards.
func (s *clusterSched) launchLocal(ci int) {
	if s.localStats == nil {
		s.localStats = &HostStatus{Host: "local", State: phaseNames[hostHealthy]}
	}
	s.localBusy = true
	s.inFlight++
	pl := &placement{cell: ci, worker: -1, start: s.clk.Now(),
		cancel: func() {}, done: make(chan struct{})}
	s.placements[ci] = append(s.placements[ci], pl)
	c := s.cells[ci]
	s.vrc.logf("cluster: no healthy host; running %s/%s [%s] locally (-degrade local)",
		c.workload.Suite(), c.workload.Name(), c.buildType)
	go func() {
		shard := runlog.NewShard()
		cellRC := s.rc.child(shard.Writer(), s.vrc.Verbose)
		res := clusterResult{pl: pl}
		if err := s.fn(cellRC, c); err != nil {
			res.err = err
		} else {
			res.shard = shard
		}
		s.results <- res
	}()
}

// dropPlacement removes a settled placement from its cell's in-flight
// set.
func (s *clusterSched) dropPlacement(pl *placement) {
	pls := s.placements[pl.cell]
	for i, p := range pls {
		if p == pl {
			s.placements[pl.cell] = append(pls[:i], pls[i+1:]...)
			break
		}
	}
	if len(s.placements[pl.cell]) == 0 {
		delete(s.placements, pl.cell)
	}
}

// handleResult settles one placement: a valid shard settles the cell
// (first result wins; later duplicates are discarded), a host fault
// moves the host to probation and fails the cell over, and a genuine
// cell failure aborts the run with the serial loop's first-error
// semantics.
func (s *clusterSched) handleResult(r clusterResult) {
	pl := r.pl
	s.inFlight--
	close(pl.done)
	pl.cancel()
	s.dropPlacement(pl)
	ci := pl.cell

	if pl.worker < 0 { // degrade-local execution
		s.localBusy = false
		if r.err != nil {
			s.failRun(ci, r.err)
		} else {
			s.localStats.Cells++
			s.settle(ci, r.shard)
		}
		s.assign()
		return
	}

	st := s.state[pl.worker]
	name := s.workers[pl.worker].host.Name()

	if pl.superseded {
		// This placement lost a speculation race; the cell is already
		// settled and this result — success or cancellation — is
		// discarded before the merge, never persisted. A loser that
		// surfaced a real host fault still drives the state machine.
		st.stats.SpecLosses++
		if r.err != nil && (errors.Is(r.err, remote.ErrUnreachable) || errors.Is(r.err, errHostProvision)) {
			st.stats.Failovers++
			s.hostFault(pl.worker, r.err)
		} else {
			s.backToPool(pl.worker)
		}
		s.emitHosts()
		s.assign()
		return
	}

	switch {
	case r.err == nil:
		st.stats.Cells++
		if pl.speculative {
			st.stats.SpecWins++
			c := s.cells[ci]
			s.vrc.logf("cluster: speculative copy of %s/%s [%s] won on %s",
				c.workload.Suite(), c.workload.Name(), c.buildType, name)
		}
		s.durations = append(s.durations, s.clk.Now().Sub(pl.start))
		s.settle(ci, r.shard)
		// First result wins: cancel the cell's other placements; their
		// results are discarded in the superseded branch above.
		for _, other := range s.placements[ci] {
			other.superseded = true
			other.cancel()
		}
		s.backToPool(pl.worker)
	case s.isHostFault(pl, r.err):
		st.stats.Failovers++
		s.hostFault(pl.worker, r.err)
		if s.p.shards[ci] == nil && len(s.placements[ci]) == 0 {
			// The fault stranded the cell: retry it elsewhere, at the
			// front of the queue. Logged once — each worker runs one cell
			// at a time, so one fault strands exactly one placement. (If
			// a speculative duplicate is still in flight, the race covers
			// the cell and nothing is requeued.)
			c := s.cells[ci]
			s.vrc.logf("cluster: host %s %s; failing over %s/%s [%s]",
				name, faultKind(pl, r.err), c.workload.Suite(), c.workload.Name(), c.buildType)
			s.queue = append([]int{ci}, s.queue...)
		}
	default:
		// Genuine cell failure: keep the serial loop's first-error
		// abort, attributed to the cell and host by the remote wrapper.
		s.failRun(ci, r.err)
		s.backToPool(pl.worker)
	}
	s.emitHosts()
	s.assign()
}

// isHostFault classifies a placement error as a host fault: the host was
// unreachable, failed to provision, or blew the per-cell deadline (the
// watchdog cancelled the placement). A context error without the
// watchdog mark is the run's own cancellation — a genuine abort.
func (s *clusterSched) isHostFault(pl *placement, err error) bool {
	if errors.Is(err, remote.ErrUnreachable) || errors.Is(err, errHostProvision) {
		return true
	}
	return pl.timedOut.Load() && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// faultKind renders a host fault's cause for the -v failover line.
func faultKind(pl *placement, err error) string {
	switch {
	case errors.Is(err, errHostProvision):
		return "failed provisioning"
	case pl.timedOut.Load() && !errors.Is(err, remote.ErrUnreachable):
		return "timed out"
	default:
		return "unreachable"
	}
}

// hostFault drives the state machine on a host fault. Unreachability and
// deadline expiry move the host to probation with an immediate first
// probe; provisioning failures evict immediately — they are
// deterministic, so a probe (which only proves reachability) would
// re-admit a host that can never run a cell.
func (s *clusterSched) hostFault(wi int, cause error) {
	st := s.state[wi]
	if st.phase != hostHealthy {
		return
	}
	name := s.workers[wi].host.Name()
	if errors.Is(cause, errHostProvision) {
		st.phase = hostEvicted
		s.vrc.logf("cluster: host %s evicted: %v", name, cause)
		return
	}
	st.phase = hostProbation
	st.probeFails = 0
	s.vrc.logf("cluster: host %s entering probation", name)
	s.scheduleProbe(wi, 0)
}

// scheduleProbe arms one reprobe of a probation host after delay on the
// scheduler clock. The probe is a transport-level Ping bounded by the
// probe timeout (-host-timeout, or a default), so probing a hung host
// terminates.
func (s *clusterSched) scheduleProbe(wi int, delay time.Duration) {
	if s.stop {
		return
	}
	h := s.workers[wi].host
	timeout := s.rc.Config.HostTimeout
	if timeout <= 0 {
		timeout = defaultProbeTimeout
	}
	t := s.clk.After(delay)
	go func() {
		select {
		case <-t.C:
		case <-s.ctx.Done():
			t.Stop()
			return
		}
		pctx, cancel := context.WithCancel(s.ctx)
		pt := s.clk.After(timeout)
		pdone := make(chan struct{})
		go func() {
			select {
			case <-pt.C:
				cancel()
			case <-pdone:
				pt.Stop()
			}
		}()
		err := h.Ping(pctx)
		close(pdone)
		cancel()
		select {
		case s.probes <- probeResult{worker: wi, err: err}:
		case <-s.ctx.Done():
		}
	}()
}

// handleProbe advances a probation host's state machine: a successful
// probe re-admits it to the placement pool; a failed one backs off
// exponentially until maxProbeFails evicts it.
func (s *clusterSched) handleProbe(pr probeResult) {
	st := s.state[pr.worker]
	if s.stop || st.phase != hostProbation {
		return
	}
	st.stats.Probes++
	name := s.workers[pr.worker].host.Name()
	if pr.err == nil {
		st.phase = hostHealthy
		st.probeFails = 0
		s.vrc.logf("cluster: host %s recovered; re-admitted after %d probes", name, st.stats.Probes)
		// A recovered host is a fresh candidate: clear it from unsettled
		// cells' attempted sets, so a cell that faulted on it before the
		// outage (or timed out under transient load) can retry there
		// instead of counting it toward exhaustion.
		for ci, tried := range s.attempted {
			if tried != nil && s.p.shards[ci] == nil {
				delete(tried, name)
			}
		}
		s.idle = append(s.idle, pr.worker)
		s.emitHosts()
		s.assign()
		return
	}
	st.probeFails++
	if st.probeFails >= maxProbeFails {
		st.phase = hostEvicted
		s.vrc.logf("cluster: host %s evicted after %d failed probes", name, st.probeFails)
		s.emitHosts()
		s.assign() // queued cells waiting on this host settle their fate
		return
	}
	s.scheduleProbe(pr.worker, probeBaseDelay<<(st.probeFails-1))
}

// handleJoin admits a host Ensure'd into the cluster mid-run (a new
// -hosts-file name, or the serve hosts API); it immediately absorbs
// queued cells. Known names are ignored.
func (s *clusterSched) handleJoin(h *remote.Host) {
	if s.stop {
		return
	}
	for _, w := range s.workers {
		if w.host.Name() == h.Name() {
			return
		}
	}
	w := &clusterWorker{host: h, fx: s.rc.Fex}
	if err := s.admitWorker(w); err != nil {
		s.vrc.logf("cluster: host %s failed to join: %v", h.Name(), err)
		return
	}
	s.vrc.logf("cluster: host %s joined mid-run", h.Name())
	s.emitHosts()
	s.assign()
}

// backToPool returns a worker to the idle pool if it is still healthy,
// and re-runs the straggler detector: a freshly idle worker is exactly
// the opportunity speculation waits for, even if the wake timer was not
// armed (or already fired) when the worker was busy.
func (s *clusterSched) backToPool(wi int) {
	if s.state[wi].phase == hostHealthy {
		s.idle = append(s.idle, wi)
		s.wakeSpec()
	}
}

// wakeSpec nudges the event loop into another maybeSpeculate pass.
// Non-blocking: the wake channel holds one pending nudge.
func (s *clusterSched) wakeSpec() {
	select {
	case s.specWake <- struct{}{}:
	default:
	}
}

// settle records a cell's winning shard: into the plan at its canonical
// position, into the result store, and as a progress event carrying the
// host snapshot. Exactly one placement settles a cell — losers are
// superseded before their results arrive.
func (s *clusterSched) settle(ci int, shard *runlog.Shard) {
	s.p.shards[ci] = shard
	// The fetched shard is durable the moment it reaches the
	// coordinator: a run that later fails still leaves this cell
	// resumable.
	persistCell(s.vrc, s.cells[ci], shard)
	s.rc.reportProgress(ProgressEvent{Stage: "cell", Done: int(s.p.done.Add(1)),
		Total: len(s.cells), Replayed: s.p.replayed, Deduped: s.p.deduped,
		Hosts: s.hostSnapshot()})
}

// failRun records a genuine failure and stops dispatch: queued cells are
// abandoned (their shards stay nil), in-flight placements drain.
func (s *clusterSched) failRun(ci int, err error) {
	s.errs[ci] = err
	s.stop = true
	s.failed.Store(true)
	s.queue = nil
}

// triedHosts renders the hosts a cell was attempted on, in worker order,
// for error attribution.
func (s *clusterSched) triedHosts(ci int) string {
	var tried []string
	for _, w := range s.workers {
		if s.attempted[ci][w.host.Name()] {
			tried = append(tried, w.host.Name())
		}
	}
	return strings.Join(tried, ", ")
}

// anyHealthy reports whether any worker is in the healthy phase.
func (s *clusterSched) anyHealthy() bool {
	for _, st := range s.state {
		if st.phase == hostHealthy {
			return true
		}
	}
	return false
}

// remoteEligible reports whether the cell still has an untried
// non-evicted host — the exhaustion criterion for failing (or locally
// degrading) a cell.
func (s *clusterSched) remoteEligible(ci int) bool {
	for wi, w := range s.workers {
		if s.state[wi].phase != hostEvicted && !s.attempted[ci][w.host.Name()] {
			return true
		}
	}
	return false
}

// assign places queued cells, earliest first. A cell goes to an idle
// healthy worker that has not attempted it; it stays queued while its
// untried hosts are busy or in probation (a result, probe outcome or
// join re-runs assign); and once no untried non-evicted host remains it
// fails the run with an error naming every host tried. With -degrade
// local, a cell no remote can serve — every host down or probing, or its
// untried hosts exhausted — runs on the coordinator instead, one at a
// time.
func (s *clusterSched) assign() {
	if s.stop {
		return
	}
	degradeLocal := s.rc.Config.Degrade == "local"
	healthy := s.anyHealthy()
	for qi := 0; qi < len(s.queue); {
		ci := s.queue[qi]
		eligible := s.remoteEligible(ci)
		if degradeLocal && (!healthy || !eligible) {
			if s.localBusy {
				qi++
				continue
			}
			s.queue = append(s.queue[:qi], s.queue[qi+1:]...)
			s.launchLocal(ci)
			continue
		}
		if !eligible {
			c := s.cells[ci]
			s.failRun(ci, fmt.Errorf("cluster: cell %s/%s [%s]: no reachable host left of %s (tried %s): %w",
				c.workload.Suite(), c.workload.Name(), c.buildType,
				strings.Join(s.rc.Config.Hosts, ", "), s.triedHosts(ci), remote.ErrUnreachable))
			return
		}
		if wi := s.takeIdle(ci); wi >= 0 {
			s.queue = append(s.queue[:qi], s.queue[qi+1:]...)
			s.launch(wi, ci, false)
			continue
		}
		qi++
	}
}

// takeIdle removes and returns the first idle healthy worker that has
// not attempted the cell, or -1 when there is none.
func (s *clusterSched) takeIdle(ci int) int {
	for ii, wi := range s.idle {
		if s.state[wi].phase == hostHealthy && !s.attempted[ci][s.workers[wi].host.Name()] {
			s.idle = append(s.idle[:ii], s.idle[ii+1:]...)
			return wi
		}
	}
	return -1
}

// maybeSpeculate runs the straggler detector: with the queue drained,
// spare idle workers, and enough completed cells for a meaningful
// median, a cell whose only placement has run longer than
// max(specFactor×median, specMinElapsed) is duplicated onto an idle
// untried host — first result wins, loser cancelled. Stragglers are
// scanned in canonical cell order, so when idle workers are scarce the
// earliest cell gets the duplicate on every run. When no straggler is
// due yet, a timer on the scheduler clock re-arms the check at the
// earliest future threshold crossing.
func (s *clusterSched) maybeSpeculate() {
	s.stopSpecTimer()
	if s.stop || s.rc.Config.NoSpeculate || len(s.queue) > 0 ||
		len(s.durations) < specMinSamples {
		return
	}
	durs := append([]time.Duration(nil), s.durations...)
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	threshold := specFactor * medianDuration(durs)
	if threshold < specMinElapsed {
		threshold = specMinElapsed
	}
	now := s.clk.Now()
	var earliest time.Time
	pendingWake := false
	running := make([]int, 0, len(s.placements))
	for ci := range s.placements {
		running = append(running, ci)
	}
	sort.Ints(running)
	for _, ci := range running {
		pls := s.placements[ci]
		if s.p.shards[ci] != nil || len(pls) != 1 {
			continue // settled, or already speculated
		}
		pl := pls[0]
		if pl.worker < 0 || pl.speculative {
			continue
		}
		if now.Sub(pl.start) < threshold {
			due := pl.start.Add(threshold)
			if !pendingWake || due.Before(earliest) {
				earliest = due
				pendingWake = true
			}
			continue
		}
		if wi := s.takeIdle(ci); wi >= 0 {
			c := s.cells[ci]
			s.vrc.logf("cluster: speculating %s/%s [%s] on %s (straggling on %s)",
				c.workload.Suite(), c.workload.Name(), c.buildType,
				s.workers[wi].host.Name(), s.workers[pl.worker].host.Name())
			s.launch(wi, ci, true)
		}
	}
	// Re-arm whenever a future crossing exists, even with the idle pool
	// momentarily empty: backToPool wakes the detector when a worker
	// frees up, and the timer covers the case where every worker is idle
	// but no straggler is due yet.
	if pendingWake {
		t := s.clk.After(earliest.Sub(now))
		s.specTmr = t
		go func() {
			select {
			case <-t.C:
				select {
				case s.specWake <- struct{}{}:
				default:
				}
			case <-s.ctx.Done():
				t.Stop()
			}
		}()
	}
}

// stopSpecTimer disarms the pending speculation wakeup, if any.
func (s *clusterSched) stopSpecTimer() {
	if s.specTmr != nil {
		s.specTmr.Stop()
		s.specTmr = nil
	}
}

// medianDuration returns the median of an already-sorted, non-empty
// slice; an even count averages the two middle elements (not the upper
// one, which would bias the speculation threshold high on even sample
// counts).
func medianDuration(durs []time.Duration) time.Duration {
	n := len(durs)
	if n%2 == 1 {
		return durs[n/2]
	}
	return (durs[n/2-1] + durs[n/2]) / 2
}

// hostSnapshot renders the per-host counters for progress events and the
// -v summary, in worker order, with the degrade-local pseudo-host last.
func (s *clusterSched) hostSnapshot() []HostStatus {
	out := make([]HostStatus, 0, len(s.state)+1)
	for _, st := range s.state {
		hs := st.stats
		hs.State = phaseNames[st.phase]
		out = append(out, hs)
	}
	if s.localStats != nil {
		out = append(out, *s.localStats)
	}
	return out
}

// emitHosts publishes a host-state progress event (probation, eviction,
// recovery, join, speculation outcomes) so service callers see cluster
// health between cell completions.
func (s *clusterSched) emitHosts() {
	s.rc.reportProgress(ProgressEvent{Stage: "hosts", Done: int(s.p.done.Load()),
		Total: len(s.cells), Replayed: s.p.replayed, Deduped: s.p.deduped,
		Hosts: s.hostSnapshot()})
}

// logSummary writes the end-of-run per-host summary to the -v stream.
func (s *clusterSched) logSummary() {
	for _, hs := range s.hostSnapshot() {
		s.vrc.logf("== cluster: host %s: %s, %d cells, %d failovers, %d probes, %d spec wins, %d spec losses",
			hs.Host, hs.State, hs.Cells, hs.Failovers, hs.Probes, hs.SpecWins, hs.SpecLosses)
	}
}
