package serverless

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/medusa-repro/medusa/internal/artifactcache"
	"github.com/medusa-repro/medusa/internal/autoscale"
	"github.com/medusa-repro/medusa/internal/engine"
	"github.com/medusa-repro/medusa/internal/eventq"
	"github.com/medusa-repro/medusa/internal/faults"
	"github.com/medusa-repro/medusa/internal/metrics"
	"github.com/medusa-repro/medusa/internal/obs"
	"github.com/medusa-repro/medusa/internal/router"
	"github.com/medusa-repro/medusa/internal/sched"
	"github.com/medusa-repro/medusa/internal/workload"
)

// This file is the one discrete-event loop behind both simulators. The
// paper's GPU pool (RunMulti) is a one-node fleet without an artifact
// cache; the cluster package builds multi-node fleets whose nodes front
// the artifact registry with tiered caches (RunFleet). Several
// deployments share the nodes, each with its own queue, autoscaling
// target and loading strategy — the setting behind §2.4's economics
// argument: hot spares for every model type are unaffordable, so
// cold-start latency is what decides tail TTFT.
//
// The loop is built to scale to 10M+ requests per run:
//
//   - Events live in an eventq.Queue (monomorphized 4-ary heap, no
//     interface boxing) with the (time, push-sequence) tie-break.
//   - Arrivals are pulled lazily from an ArrivalSource — exactly one
//     undelivered arrival is in flight at any time, so neither the
//     trace nor its events are ever materialized in full.
//   - Request and instance state recycle through free-lists, and the
//     queues, scratch buffers and registry instruments are reused, so
//     steady-state allocation is O(active requests), not O(total).
//   - Bookkeeping that used to scan every instance ever launched
//     (GPU accounting, dispatch, outstanding counts) is maintained
//     incrementally via per-deployment live-instance lists and
//     counters.
//
// Every launch picks a node (locality against load), then charges the
// artifact read; warm containers spare it runtime init. How the read
// is charged is the loop's one node-dependent branch (launchOne): a
// cacheless node reads the artifact from the model store, a cached
// node fetches it through its tiered cache.

// eventKind discriminates simulation events.
type eventKind int

const (
	evArrival eventKind = iota
	evInstanceReady
	evIterationEnd
	evIdleCheck
	evNodeCrash
)

// event is one scheduled occurrence. Instance events carry the epoch
// the instance state had when scheduled; recycled instances bump their
// epoch, which invalidates events still queued against the previous
// incarnation (idle checks after retirement, ready/iteration-end
// events after a node crash).
type event struct {
	kind  eventKind
	req   *reqState
	inst  *instState
	node  int
	epoch uint64
}

// reqState tracks one request through the system.
type reqState struct {
	workload.Request
	dep      int // owning deployment
	emitted  int
	ttftSeen bool
	// firstTok is when the first token was emitted (batched mode; the
	// TPOT denominator interval starts here).
	firstTok time.Duration
	// turn is the request's position in its conversation (1-based).
	turn int
	// sloViolated latches the first missed deadline; checked once at
	// completion so each request counts toward attainment exactly once.
	sloViolated bool
}

// instState is one provisioned instance, pinned to a node.
type instState struct {
	id   int
	dep  int
	node int
	// epoch distinguishes incarnations of a recycled state object;
	// events carry the epoch they were scheduled against.
	epoch   uint64
	ready   bool
	running []*reqState
	// iterating reports whether an iteration-end event is in flight.
	iterating  bool
	idleSince  time.Duration
	launchedAt time.Duration
	kvTokens   int
	// captured tracks graph sizes this instance has lazily captured
	// (deferred-capture strategy only).
	captured map[int]bool
	// degraded records the fault reason when the launch fell back to
	// the vanilla cold-start profile ("" for a clean launch).
	degraded string
	// sch is the instance's iteration-level scheduler (batched
	// execution mode only; nil otherwise). It recycles with the
	// instance state through the free-list.
	sch *sched.Scheduler[*reqState]
}

// idleNow reports whether the instance currently holds no work.
func (inst *instState) idleNow(batched bool) bool {
	if batched {
		return !inst.iterating && inst.sch.Idle()
	}
	return !inst.iterating && len(inst.running) == 0
}

// nodeState is one node: a GPU budget and, on a fleet, the tiered
// artifact cache.
type nodeState struct {
	id       int
	gpus     int
	gpusUsed int
	launches int
	crashed  bool
	cache    *artifactcache.NodeCache // nil on a cacheless node
	// Node-seconds accounting: a node costs while it hosts at least one
	// instance. liveInsts transitions 0→1 open an up-interval; 1→0
	// close it into upTime.
	liveInsts int
	upSince   time.Duration
	upTime    time.Duration
}

// tierLocality grades how close a cache tier is to holding an
// artifact: RAM-resident is ideal, an in-flight transfer (TierRemote)
// is nearly as good — it lands while the container boots — and SSD
// costs one local read.
var tierLocality = [...]float64{artifactcache.TierRAM: 1.0, artifactcache.TierRemote: 0.9, artifactcache.TierSSD: 0.7}

// locality grades the node's cache for key. Nodes without a cache, and
// deployments that fetch nothing, score 0.
func (n *nodeState) locality(key string, now time.Duration) float64 {
	if key == "" || n.cache == nil {
		return 0
	}
	if tier, ok := n.cache.Locate(key, now); ok {
		return tierLocality[tier]
	}
	return 0
}

// depState is one deployment's queue, profile and metrics. All
// counting goes through the obs registry (samples "ttft"/"e2e",
// counters "completed"/"cold_starts"/"iterations"/"follow_ups", gauge
// "live_instances"); the registry itself is returned in the Result.
// The hot-path instruments are resolved once and cached so the loop
// never takes the registry's name-lookup mutex per event.
type depState struct {
	cfg  Config
	prof *profile
	name string
	// key is the deployment's artifact-cache key ("" when the strategy
	// restores no artifact). tmplKey is the shared template's cache key
	// when the artifact is template-factored ("" otherwise): cached
	// launches then fetch the (template, delta) pair, and the template
	// entry is shared across every sibling deployment of the
	// architecture.
	key     string
	tmplKey string
	// fallback is the vanilla profile degraded launches serve with (nil
	// when no injector is attached or the strategy has no artifact).
	// fkey namespaces a cacheless launch's fault draws and artRead is
	// the virtual cost of one (possibly failed) local artifact read.
	fallback *profile
	fkey     string
	artRead  time.Duration

	// batched selects iteration-level continuous batching; batch is
	// the resolved parameter set (KVBlocks defaulted from the profile's
	// measured KV capacity, MaxSeqs from MaxBatch).
	batched bool
	batch   sched.Params

	pending eventq.Deque[*reqState]
	// active lists live instances in launch order — the dispatch and
	// accounting walk.
	active []*instState
	// outstanding counts the deployment's unfinished requests
	// (pending + running), maintained incrementally.
	outstanding int

	reg      *obs.Registry
	phases   *obs.PhaseBreakdown
	csTotal  time.Duration
	live     int
	firstArr time.Duration
	seenArr  bool
	lastDone time.Duration
	rng      *rand.Rand

	// Cached registry instruments (hot path).
	cCompleted  *obs.Counter
	cColdStarts *obs.Counter
	cIterations *obs.Counter
	cFollowUps  *obs.Counter
	cPreempt    *obs.Counter
	sTTFT       *metrics.Sample
	sE2E        *metrics.Sample
	sTPOT       *metrics.Sample
	gLive       *obs.Gauge
	// sColdStart samples each launch's provisioning latency; bound only
	// on fleets whose nodes front artifact caches. cSLOMet counts
	// deadline-meeting completions; bound only under an SLO. Both stay
	// nil otherwise, so the registry keeps its historical instrument
	// set.
	sColdStart *metrics.Sample
	cSLOMet    *obs.Counter
}

// bindInstruments resolves the hot-path instruments once. The
// batched-only instruments (tpot, preemptions) register lazily so a
// legacy-mode registry renders exactly the historical instrument set.
func (d *depState) bindInstruments(coldStartSample, slo bool) {
	d.cCompleted = d.reg.Counter("completed")
	d.cColdStarts = d.reg.Counter("cold_starts")
	d.cIterations = d.reg.Counter("iterations")
	d.cFollowUps = d.reg.Counter("follow_ups")
	d.sTTFT = d.reg.Sample("ttft")
	d.sE2E = d.reg.Sample("e2e")
	d.gLive = d.reg.Gauge("live_instances")
	if d.batched {
		d.cPreempt = d.reg.Counter("preemptions")
		d.sTPOT = d.reg.Sample("tpot")
	}
	if coldStartSample {
		d.sColdStart = d.reg.Sample("cold_start")
	}
	if slo {
		d.cSLOMet = d.reg.Counter("slo_met")
	}
}

// liveChanged records the live-instance level in the gauge (its Max is
// the Result's PeakInstances).
func (d *depState) liveChanged() {
	d.gLive.Update(float64(d.live))
}

// removeActive deletes inst from the live list, preserving launch
// order (dispatch order is part of the deterministic contract).
func (d *depState) removeActive(inst *instState) {
	for i, a := range d.active {
		if a == inst {
			d.active = append(d.active[:i], d.active[i+1:]...)
			return
		}
	}
}

// simulation is the discrete-event state.
type simulation struct {
	reg   *obs.Registry // run-wide (fault and cache counters)
	inj   *faults.Injector
	nodes []*nodeState

	// The control plane: scaler decides instance counts on every tick
	// (never nil — RunFleet defaults it to the reactive baseline),
	// router orders dispatch (nil = launch-order walk), slo carries the
	// configured deadlines (zero = no SLO accounting), localityWeight
	// scales the placer's preference for cache-warm nodes.
	scaler         autoscale.Policy
	router         router.Policy
	slo            SLO
	localityWeight float64

	deps []*depState

	// src streams arrivals; head is the one pulled-but-unfired arrival
	// whose event sits in the queue.
	src  ArrivalSource
	head *reqState
	// renumber assigns request IDs in delivery order (streaming mode);
	// the slice-based path pre-assigns concatenation-order IDs instead.
	renumber bool
	lastArr  time.Duration

	now    time.Duration
	events eventq.Queue[event]

	// Free-lists for recycled state objects.
	reqPool  []*reqState
	instPool []*instState
	instSeq  int // next instance id
	nextID   int // next request id (follow-ups, streaming arrivals)

	// Scratch buffers reused across calls on the hot path.
	scratchIntervals []obs.Interval
	scratchAdmitted  []*reqState
	scratchCrash     []*instState
	scratchChunkDur  []time.Duration
	scratchCands     []router.Candidate
	scratchRoute     []*instState

	created    int
	completed  int
	lastDone   time.Duration
	gpuSeconds float64
}

// newReq returns a zeroed request state from the free-list.
func (s *simulation) newReq() *reqState {
	if n := len(s.reqPool); n > 0 {
		r := s.reqPool[n-1]
		s.reqPool = s.reqPool[:n-1]
		return r
	}
	return &reqState{}
}

// freeReq recycles a completed request's state.
func (s *simulation) freeReq(r *reqState) {
	*r = reqState{}
	s.reqPool = append(s.reqPool, r)
}

// newInst returns a fresh instance state, recycling a retired one if
// available. The epoch survives recycling (freeInst bumped it), so
// events scheduled against the previous incarnation no longer match.
func (s *simulation) newInst(dep, node int) *instState {
	var inst *instState
	if n := len(s.instPool); n > 0 {
		inst = s.instPool[n-1]
		s.instPool = s.instPool[:n-1]
	} else {
		inst = &instState{}
	}
	inst.id = s.instSeq
	s.instSeq++
	inst.dep = dep
	inst.node = node
	if d := s.deps[dep]; d.batched {
		if inst.sch == nil {
			inst.sch = sched.New[*reqState](d.batch)
		} else {
			inst.sch.Reset(d.batch)
		}
	}
	return inst
}

// freeInst recycles an instance state, invalidating any events still
// referencing this incarnation (stale idle checks; after a crash, the
// in-flight ready or iteration-end event).
func (s *simulation) freeInst(inst *instState) {
	epoch := inst.epoch + 1
	running := inst.running[:0]
	// The scheduler recycles with the instance (newInst resets it).
	*inst = instState{epoch: epoch, running: running, sch: inst.sch}
	s.instPool = append(s.instPool, inst)
}

// pullArrival draws the next arrival from the source and schedules it.
// Exactly one sourced arrival is in the event queue at a time.
func (s *simulation) pullArrival() error {
	di, req, ok := s.src.Next()
	if !ok {
		s.head = nil
		return s.src.Err()
	}
	if di < 0 || di >= len(s.deps) {
		return fmt.Errorf("serverless: arrival for unknown deployment %d", di)
	}
	if req.Arrival < s.lastArr {
		return fmt.Errorf("serverless: arrival stream went backwards (%v after %v)", req.Arrival, s.lastArr)
	}
	s.lastArr = req.Arrival
	r := s.newReq()
	r.Request = req
	r.dep = di
	r.turn = 1
	if s.renumber {
		r.ID = s.nextID
		s.nextID++
	}
	s.created++
	s.head = r
	s.events.Push(req.Arrival, event{kind: evArrival, req: r})
	return nil
}

func (s *simulation) run() (*MultiResult, error) {
	for di, d := range s.deps {
		// Pre-warmed instances occupy GPUs from time zero, placed like
		// any launch but charged no cold start.
		for i := 0; i < d.cfg.Scheduler.Prewarm; i++ {
			node := s.placeNode(d)
			if node == nil {
				break
			}
			inst := s.newInst(di, node.id)
			inst.ready = true
			node.gpusUsed += d.cfg.TPDegree
			node.launches++
			s.nodeUp(node)
			d.active = append(d.active, inst)
			d.live++
		}
		d.liveChanged()
	}
	if err := s.pullArrival(); err != nil {
		return nil, err
	}
	if s.inj != nil {
		for _, nc := range s.inj.CrashSchedule() {
			s.events.Push(nc.At.D(), event{kind: evNodeCrash, node: nc.Node})
		}
	}

	for s.events.Len() > 0 {
		t, ev := s.events.Pop()
		s.now = t
		switch ev.kind {
		case evArrival:
			r := ev.req
			d := s.deps[r.dep]
			if !d.seenArr {
				d.seenArr = true
				d.firstArr = r.Arrival
			}
			d.pending.PushBack(r)
			d.outstanding++
			s.scaler.ObserveArrival(r.dep, r.Arrival)
			if r == s.head {
				if err := s.pullArrival(); err != nil {
					return nil, err
				}
			}
			if err := s.tick(); err != nil {
				return nil, err
			}
			if err := s.dispatchIdle(); err != nil {
				return nil, err
			}
		case evInstanceReady:
			inst := ev.inst
			if inst.epoch != ev.epoch {
				// The instance's node crashed mid-provisioning; the
				// launch was already written off as lost.
				break
			}
			inst.ready = true
			s.markIdle(inst)
			if err := s.dispatchIdle(); err != nil {
				return nil, err
			}
		case evIterationEnd:
			if ev.inst.epoch != ev.epoch {
				// The node crashed mid-iteration; the batch was requeued
				// and this event means nothing.
				break
			}
			if err := s.finishIteration(ev.inst); err != nil {
				return nil, err
			}
		case evNodeCrash:
			if err := s.crashNode(ev.node); err != nil {
				return nil, err
			}
		case evIdleCheck:
			inst := ev.inst
			if inst.epoch != ev.epoch {
				break
			}
			d := s.deps[inst.dep]
			if inst.ready && inst.idleNow(d.batched) &&
				s.now-inst.idleSince >= d.cfg.Scheduler.IdleTimeout {
				if s.retainVeto(inst) {
					// The autoscaling policy is holding this capacity warm
					// for forecast traffic: re-arm the idle check instead
					// of retiring. The veto lapses as the forecast decays,
					// and a policy without the Retainer extension (the
					// reactive baseline) never vetoes. Re-checks run at
					// half the timeout so a vetoed instance retires
					// promptly once its node's anchor work drains.
					s.events.Push(s.now+(d.cfg.Scheduler.IdleTimeout+1)/2,
						event{kind: evIdleCheck, inst: inst, epoch: inst.epoch})
					break
				}
				s.retire(inst)
				// A freed GPU may unblock another deployment's launch.
				if err := s.tick(); err != nil {
					return nil, err
				}
				if err := s.dispatchIdle(); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := s.src.Err(); err != nil {
		return nil, err
	}
	if s.completed != s.created {
		return nil, fmt.Errorf("serverless: %d of %d requests completed", s.completed, s.created)
	}
	return s.assemble(), nil
}

// nodeUp opens the node's cost interval when its first instance lands.
func (s *simulation) nodeUp(n *nodeState) {
	if n.liveInsts == 0 {
		n.upSince = s.now
	}
	n.liveInsts++
}

// nodeDown closes the node's cost interval when its last instance
// leaves.
func (s *simulation) nodeDown(n *nodeState) {
	n.liveInsts--
	if n.liveInsts == 0 {
		n.upTime += s.now - n.upSince
	}
}

// retire takes an instance out of service, settling its GPU-time
// account and recycling its state.
func (s *simulation) retire(inst *instState) {
	d := s.deps[inst.dep]
	s.nodes[inst.node].gpusUsed -= d.cfg.TPDegree
	s.nodeDown(s.nodes[inst.node])
	d.live--
	d.liveChanged()
	if s.now > inst.launchedAt {
		s.gpuSeconds += (s.now - inst.launchedAt).Seconds() * float64(d.cfg.TPDegree)
	}
	d.removeActive(inst)
	s.freeInst(inst)
}

// assemble builds the results, including GPU- and node-time accounting.
func (s *simulation) assemble() *MultiResult {
	out := &MultiResult{Makespan: s.lastDone, GPUSeconds: s.gpuSeconds}
	for _, d := range s.deps {
		completed := int(d.cCompleted.Value())
		coldStarts := int(d.cColdStarts.Value())
		res := &Result{
			TTFT:            d.sTTFT,
			E2E:             d.sE2E,
			Completed:       completed,
			Makespan:        d.lastDone - d.firstArr,
			Throughput:      metrics.Throughput(completed, d.lastDone-d.firstArr),
			ColdStarts:      coldStarts,
			Degraded:        int(d.reg.Counter("degraded_cold_starts").Value()),
			PeakInstances:   int(d.gLive.Max()),
			ColdStartPhases: d.phases,
			ColdStartTotal:  d.csTotal,
			Metrics:         d.reg,
		}
		if d.batched {
			res.TPOT = d.sTPOT
			res.Preemptions = int(d.cPreempt.Value())
		}
		out.PerDeployment = append(out.PerDeployment, res)
		out.TotalColdStarts += coldStarts
		// Instances still live at the end are charged to the last
		// completion, as if decommissioned with the cluster.
		for _, inst := range d.active {
			if s.lastDone > inst.launchedAt {
				out.GPUSeconds += (s.lastDone - inst.launchedAt).Seconds() * float64(d.cfg.TPDegree)
			}
		}
	}
	for _, n := range s.nodes {
		// Nodes still hosting instances are charged to the last
		// completion, mirroring the GPU-seconds convention above.
		up := n.upTime
		if n.liveInsts > 0 && s.lastDone > n.upSince {
			up += s.lastDone - n.upSince
		}
		out.Nodes = append(out.Nodes, NodeUsage{Launches: n.launches, Crashed: n.crashed, Up: up})
	}
	return out
}

// tick is the control plane's single evaluation point: every event
// that can change demand or capacity (arrival, iteration end, idle
// retirement, node crash) funnels here. Each deployment's desired
// instance count comes from the autoscale policy, and launches repeat
// round-robin, so no model starves, until every policy is satisfied or
// no node can host another instance.
func (s *simulation) tick() error {
	progress := true
	for progress {
		progress = false
		for di := range s.deps {
			launched, err := s.launchOne(di)
			if err != nil {
				return err
			}
			if launched {
				progress = true
			}
		}
	}
	return nil
}

// placeNode picks the launch node: among nodes with enough free GPUs,
// the one maximizing localityWeight·locality − load. Strict comparison
// over ascending ids makes ties go to the lowest node id. Returns nil
// when no node can host the instance.
func (s *simulation) placeNode(d *depState) *nodeState {
	var best *nodeState
	bestScore := 0.0
	for _, n := range s.nodes {
		if n.crashed || n.gpusUsed+d.cfg.TPDegree > n.gpus {
			continue
		}
		score := -float64(n.gpusUsed) / float64(n.gpus)
		if s.localityWeight > 0 {
			score += s.localityWeight * n.locality(d.key, s.now)
		}
		if best == nil || score > bestScore {
			best = n
			bestScore = score
		}
	}
	return best
}

// observe snapshots the deployment state an autoscaling policy sees at
// a control tick. The provisioning lead time is the profile's measured
// loading phase (placement may shave the fetch, but the loading stages
// dominate).
func (s *simulation) observe(di int) autoscale.Observation {
	d := s.deps[di]
	return autoscale.Observation{
		Now:              s.now,
		Outstanding:      d.outstanding,
		Live:             d.live,
		InstanceTarget:   d.cfg.Scheduler.InstanceTarget,
		ProvisionLatency: d.prof.coldStart,
	}
}

// nodeAnchored reports whether the node hosts a live instance other
// than except that is earning its keep — busy, or idle for less than
// its deployment's retirement timeout. Instances that are themselves
// retirement-overdue do not anchor: two overdue instances must not
// keep each other's node up.
func (s *simulation) nodeAnchored(node int, except *instState) bool {
	for _, d := range s.deps {
		for _, inst := range d.active {
			if inst == except || inst.node != node {
				continue
			}
			if !inst.idleNow(d.batched) || s.now-inst.idleSince < d.cfg.Scheduler.IdleTimeout {
				return true
			}
		}
	}
	return false
}

// retainVeto asks a Retainer policy whether retiring this instance
// would drop its deployment below the keep-warm floor. The veto only
// applies while the instance's node is anchored by other work: warm
// capacity is held when its marginal node-seconds cost is near zero,
// and a node is never kept up solely on a forecast — an instance whose
// node holds nothing but retirement-overdue peers retires on its idle
// timeout exactly like the baseline. Policies without the optional
// extension never veto, so the reactive and legacy paths keep
// unconditional idle-timeout retirement byte for byte.
func (s *simulation) retainVeto(inst *instState) bool {
	r, ok := s.scaler.(autoscale.Retainer)
	if !ok {
		return false
	}
	if !s.nodeAnchored(inst.node, inst) {
		return false
	}
	di := inst.dep
	return s.deps[di].live-1 < r.Retain(di, s.observe(di))
}

// launchOne starts at most one instance for the deployment if its
// autoscaling policy wants more and some node has free GPUs. Every
// launch lands in a warm container (the unbounded pool §7.5 assumes),
// so no runtime init is charged. The artifact read is the one step
// that depends on the node (see readLocal and fetchCached); the loading
// stages follow once it is done.
func (s *simulation) launchOne(di int) (bool, error) {
	d := s.deps[di]
	if d.live >= s.scaler.Desired(di, s.observe(di)) {
		return false, nil
	}
	node := s.placeNode(d)
	if node == nil {
		return false, nil
	}
	inst := s.newInst(di, node.id)
	inst.idleSince = s.now
	inst.launchedAt = s.now
	node.gpusUsed += d.cfg.TPDegree
	node.launches++
	s.nodeUp(node)
	d.active = append(d.active, inst)
	d.cColdStarts.Inc()
	d.live++
	d.liveChanged()

	intervals := s.scratchIntervals[:0]
	loadStart := s.now
	var fetch artifactcache.FetchResult
	if node.cache == nil {
		intervals, loadStart = s.readLocal(d, inst, intervals)
	} else if d.key != "" {
		var err error
		intervals, loadStart, fetch, err = s.fetchCached(d, inst, node, intervals)
		if err != nil {
			return false, err
		}
	}
	prof := s.profOf(inst)
	intervals = obs.AppendTimelineIntervals(intervals, prof.timeline, loadStart)
	d.phases.AddExclusive(intervals)
	ready := loadStart + prof.coldStart
	d.csTotal += ready - s.now
	if d.sColdStart != nil {
		d.sColdStart.Add(ready - s.now)
	}
	if tr := d.cfg.Tracer; tr != nil {
		root := tr.StartSpan(s.instTrack(inst), "cold_start", s.now).
			Tag("cold_start").
			Attr("strategy", d.cfg.Strategy.String()).
			Attr("model", d.cfg.Model.Name)
		if node.cache != nil {
			root.Attr("node", fmt.Sprintf("node%d", node.id))
			if d.key != "" {
				root.Attr("fetch_tier", fetch.Tier.String())
			}
		}
		if inst.degraded != "" {
			root.Attr("degraded_reason", inst.degraded)
		}
		for _, iv := range intervals {
			root.Child(iv.Phase, iv.Start).Tag(iv.Phase).End(iv.End)
		}
		root.End(ready)
	}
	s.scratchIntervals = intervals[:0]
	s.events.Push(ready, event{kind: evInstanceReady, inst: inst, epoch: inst.epoch})
	return true, nil
}

// readLocal charges a cacheless node's artifact read, which starts at
// launch. Only fault injection makes it visible: the profile's restore
// stage already includes one clean read, so a launch without an
// injector adds nothing. Under a plan the read may be retried, or the
// restore abandoned for the vanilla stages; the wasted time lands
// before loading starts. It returns the extended intervals and the
// instant loading starts.
func (s *simulation) readLocal(d *depState, inst *instState, intervals []obs.Interval) ([]obs.Interval, time.Duration) {
	at := s.now
	if d.fallback == nil {
		return intervals, at
	}
	wasted, reason := s.rollLaunchFaults(d)
	phase := engine.StageArtifactFetch
	if reason != "" {
		// The failed Medusa attempt's time is charged up front, then
		// the vanilla stages start over (§4's fallback).
		s.degradeLaunch(d, inst, reason)
		phase = engine.StageRestoreFailed
	} else if wasted == 0 {
		return intervals, at
	}
	// Either the failed attempt, or transient read errors retried into
	// a success: the launch is late but still restores.
	return append(intervals, obs.Interval{Phase: phase, Start: at, End: at + wasted}), at + wasted
}

// rollLaunchFaults draws a cacheless launch's fault outcomes. It
// returns the wasted virtual time and a non-empty degradation reason
// when the Medusa restore must be abandoned; with reason == "" the
// returned delay is transient read-retry time before a successful
// restore. The artifact read from local storage is SiteSSDRead
// (retried with backoff up to the plan's budget), a read that succeeds
// can still hand over corrupt bytes (SiteArtifactCorrupt, caught by
// checksum right after the read) or a restore that fails validation
// (SiteRestoreMismatch, caught only after the whole restore ran).
func (s *simulation) rollLaunchFaults(d *depState) (time.Duration, string) {
	var delay time.Duration
	attempts := s.inj.MaxAttempts()
	for attempt := 0; ; attempt++ {
		if !s.inj.Inject(faults.SiteSSDRead, d.fkey) {
			break
		}
		delay += d.artRead
		d.reg.Counter("faults_ssd_read").Inc()
		if attempt >= attempts-1 {
			return delay, faults.ReasonSSDReadFailed
		}
		delay += s.inj.Backoff(faults.SiteSSDRead, d.fkey, attempt)
		d.reg.Counter("fetch_retries").Inc()
	}
	if s.inj.Inject(faults.SiteArtifactCorrupt, d.fkey) {
		// The read completed before the checksum failed; its time is
		// wasted along with any retries before it.
		return delay + d.artRead, faults.ReasonCorruptArtifact
	}
	if s.inj.Inject(faults.SiteRestoreMismatch, d.fkey) {
		// Validation rejects the restore only after the whole Medusa
		// loading phase ran.
		return delay + d.prof.coldStart, faults.ReasonRestoreMismatch
	}
	return delay, ""
}

// fetchCached charges a cached node's artifact fetch: the node daemon
// pulls the artifact (and its shared template) at launch, and loading
// begins once both have landed. Injected faults at the registry, the
// template and the fetched bytes degrade the launch to the vanilla
// stages. It returns the extended intervals, the instant loading starts
// and the fetch outcome; an error means a fetch failure the launch
// cannot degrade from.
func (s *simulation) fetchCached(d *depState, inst *instState, node *nodeState, intervals []obs.Interval) ([]obs.Interval, time.Duration, artifactcache.FetchResult, error) {
	var fetch artifactcache.FetchResult
	if s.inj != nil && d.tmplKey != "" && d.fallback != nil &&
		s.inj.Inject(faults.SiteTemplateMissing, d.tmplKey) {
		// The registry lost the shared template (operator error, partial
		// GC): the delta is undecodable without it, so after one registry
		// round trip (the 404) the launch degrades to the vanilla stages.
		known := s.now + node.cache.RoundTrip()
		intervals = append(intervals, obs.Interval{
			Phase: engine.StageRestoreFailed, Start: s.now, End: known})
		s.degradeLaunch(d, inst, faults.ReasonTemplateMissing)
		return intervals, known, fetch, nil
	}
	fetch, err := node.cache.FetchPair(s.now, d.key, d.tmplKey)
	if err != nil {
		// The registry fetch exhausted its retry budget. The failed
		// attempts still burned virtual time (fetch.Ready marks the
		// instant failure was known); the launch degrades to the vanilla
		// stages, which read weights from the model store rather than
		// the artifact registry.
		reason, degradable := faults.DegradeReason(err)
		if !degradable || d.fallback == nil {
			return intervals, s.now, fetch, err
		}
		intervals = append(intervals, obs.Interval{
			Phase: engine.StageRestoreFailed, Start: s.now, End: fetch.Ready})
		s.degradeLaunch(d, inst, reason)
		return intervals, fetch.Ready, fetch, nil
	}
	intervals = append(intervals, obs.Interval{
		Phase: engine.StageArtifactFetch, Start: s.now, End: fetch.Ready})
	loadStart := fetch.Ready
	if s.inj == nil || d.fallback == nil {
		return intervals, loadStart, fetch, nil
	}
	switch {
	case d.tmplKey != "" && s.inj.Inject(faults.SiteArtifactCorrupt, d.tmplKey):
		// The shared template failed its envelope checksum: the delta
		// cannot resolve against it, and the cached copy would poison
		// every sibling launch on this node.
		node.cache.Discard(d.tmplKey)
		s.degradeLaunch(d, inst, faults.ReasonCorruptTemplate)
	case s.inj.Inject(faults.SiteArtifactCorrupt, d.key):
		// Checksum verification fails right after the read and decode:
		// nothing beyond the fetch is wasted, but the untrusted cached
		// copy must go.
		node.cache.Discard(d.key)
		s.degradeLaunch(d, inst, faults.ReasonCorruptArtifact)
	case s.inj.Inject(faults.SiteRestoreMismatch, d.key):
		// Validation rejects the restore only after the whole restore
		// pipeline ran: the full Medusa loading phase is wasted before
		// the vanilla stages start over.
		wasted := d.prof.coldStart
		intervals = append(intervals, obs.Interval{
			Phase: engine.StageRestoreFailed, Start: loadStart, End: loadStart + wasted})
		loadStart += wasted
		s.degradeLaunch(d, inst, faults.ReasonRestoreMismatch)
	}
	return intervals, loadStart, fetch, nil
}

// instTrack names an instance's tracer lane. Instances of a cacheless
// node keep the single pool's "<deployment>/inst-N" names; fleet nodes
// add a node segment.
func (s *simulation) instTrack(inst *instState) string {
	if s.nodes[inst.node].cache == nil {
		return fmt.Sprintf("%s/inst-%d", s.deps[inst.dep].name, inst.id)
	}
	return fmt.Sprintf("%s/node%d/inst-%d", s.deps[inst.dep].name, inst.node, inst.id)
}

// profOf resolves which profile governs an instance's serving costs:
// the deployment's primary profile, or the vanilla fallback when the
// launch degraded.
func (s *simulation) profOf(inst *instState) *profile {
	d := s.deps[inst.dep]
	if inst.degraded != "" && d.fallback != nil {
		return d.fallback
	}
	return d.prof
}

// degradeLaunch records one launch's fall-back to the vanilla cold-start
// stages, in both the deployment's and the run-wide registries.
func (s *simulation) degradeLaunch(d *depState, inst *instState, reason string) {
	inst.degraded = reason
	d.reg.Counter("degraded_cold_starts").Inc()
	d.reg.Counter("degraded_" + reason).Inc()
	s.reg.Counter("degraded_cold_starts").Inc()
	s.reg.Counter("faults_" + reason).Inc()
}

// crashNode kills one node at the plan's instant: its cache tiers are
// lost, its instances (ready or mid-provisioning) retire, and every
// request that was running on it is requeued onto the deployment's
// pending queue for surviving nodes to pick up. TTFT is sampled at most
// once per request, so a requeued request that already streamed tokens
// does not re-enter the TTFT distribution.
func (s *simulation) crashNode(id int) error {
	node := s.nodes[id]
	if node.crashed {
		return nil
	}
	node.crashed = true
	if node.cache != nil {
		node.cache.MarkLost()
	}
	s.reg.Counter("node_crashes").Inc()
	// Collect the node's instances first: retiring mutates the active
	// lists being walked. Deployment-major order matches the per-
	// deployment requeue order of the original all-instances scan.
	doomed := s.scratchCrash[:0]
	for _, d := range s.deps {
		for _, inst := range d.active {
			if inst.node == id {
				doomed = append(doomed, inst)
			}
		}
	}
	for _, inst := range doomed {
		d := s.deps[inst.dep]
		if !inst.ready {
			// Mid-provisioning: the cold start is lost with the node. Its
			// evInstanceReady event still fires and is ignored (stale
			// epoch).
			d.reg.Counter("lost_cold_starts").Inc()
			s.reg.Counter("lost_cold_starts").Inc()
		}
		requeue := func(r *reqState) {
			// Partial generation is lost: the request restarts from its
			// first output token on whichever instance re-admits it.
			r.emitted = 0
			d.pending.PushBack(r)
			d.reg.Counter("requeued").Inc()
			s.reg.Counter("requeued").Inc()
		}
		if d.batched {
			inst.sch.Drain(requeue)
		} else {
			for _, r := range inst.running {
				requeue(r)
			}
		}
		inst.running = inst.running[:0]
		inst.iterating = false
		inst.kvTokens = 0
		s.retire(inst)
	}
	s.scratchCrash = doomed[:0]
	if err := s.tick(); err != nil {
		return err
	}
	return s.dispatchIdle()
}

// dispatchIdle starts iterations on ready instances that are idle and
// have admissible work. Without a router each deployment's live
// instances are walked in launch order (the historical behavior); with
// one, dispatchable instances are offered work in descending score
// order, ties to the lowest instance id, so queued requests land on
// the instances the policy ranks best.
func (s *simulation) dispatchIdle() error {
	for _, d := range s.deps {
		if s.router == nil {
			for _, inst := range d.active {
				if inst.ready && !inst.iterating {
					if err := s.startIteration(inst); err != nil {
						return err
					}
				}
			}
			continue
		}
		if err := s.routeDispatch(d); err != nil {
			return err
		}
	}
	return nil
}

// routeDispatch scores a deployment's dispatchable instances and
// starts iterations in rank order. Scores are computed once per
// dispatch round: an earlier start in the round does not re-rank the
// rest (the next event's round sees the updated state).
func (s *simulation) routeDispatch(d *depState) error {
	ready := s.scratchRoute[:0]
	cands := s.scratchCands[:0]
	for _, inst := range d.active {
		if !inst.ready || inst.iterating {
			continue
		}
		c, err := s.candidate(d, inst)
		if err != nil {
			return err
		}
		ready = append(ready, inst)
		cands = append(cands, c)
	}
	s.scratchRoute, s.scratchCands = ready, cands
	for _, i := range router.Rank(s.router, cands) {
		if err := s.startIteration(ready[i]); err != nil {
			return err
		}
	}
	return nil
}

// candidate snapshots one instance for the router: queue depth, KV
// headroom, artifact locality of its node's cache, and a predicted
// TTFT (the queue-deepened decode step a newly admitted request would
// wait behind).
func (s *simulation) candidate(d *depState, inst *instState) (router.Candidate, error) {
	var depth int
	var headroom float64
	prof := s.profOf(inst)
	if d.batched {
		depth = inst.sch.Running() + inst.sch.PreemptedWaiting()
		if total := d.batch.KVBlocks; total > 0 {
			headroom = float64(inst.sch.KVFreeBlocks()) / float64(total)
		}
	} else {
		depth = len(inst.running)
		if max := prof.maxKVTok; max > 0 {
			headroom = float64(max-inst.kvTokens) / float64(max)
		}
	}
	// Predicted TTFT: each queued request deepens the batch a new
	// arrival decodes in, so charge one decode step at depth+1 per
	// queue position plus the new request's own (memoized per batch
	// size — this is the hot dispatch path).
	batch := depth + 1
	if max := d.cfg.Scheduler.MaxBatch; max > 0 && batch > max {
		batch = max
	}
	step, err := prof.decodeStep(batch)
	if err != nil {
		return router.Candidate{}, err
	}
	return router.Candidate{
		ID:         inst.id,
		QueueDepth: depth,
		KVHeadroom: headroom,
		Locality:   s.nodes[inst.node].locality(d.key, s.now),
		PredTTFT:   (time.Duration(depth+1) * step).Seconds(),
	}, nil
}

// admit moves pending requests of the instance's deployment into it up
// to batch and KV capacity, returning the admitted set (valid until the
// next admit call).
func (s *simulation) admit(inst *instState) []*reqState {
	d := s.deps[inst.dep]
	admitted := s.scratchAdmitted[:0]
	for d.pending.Len() > 0 && len(inst.running) < d.cfg.Scheduler.MaxBatch {
		r := d.pending.Front()
		need := r.PromptTokens + r.OutputTokens
		if inst.kvTokens+need > s.profOf(inst).maxKVTok {
			break
		}
		d.pending.PopFront()
		inst.kvTokens += need
		inst.running = append(inst.running, r)
		admitted = append(admitted, r)
	}
	s.scratchAdmitted = admitted
	return admitted
}

// startIteration admits work and schedules the iteration's end. An
// iteration covers the prefill of newly admitted requests plus one
// decode step for every running sequence. Batched deployments plan
// the iteration through the continuous-batching scheduler instead.
func (s *simulation) startIteration(inst *instState) error {
	d := s.deps[inst.dep]
	if d.batched {
		return s.startIterationBatched(inst)
	}
	admitted := s.admit(inst)
	if d.cfg.Tracer != nil {
		for _, r := range admitted {
			s.traceQueued(d, r)
		}
	}
	if len(inst.running) == 0 {
		return nil
	}
	prof := s.profOf(inst)
	dur, err := s.captureOnce(inst, prof, len(inst.running))
	if err != nil {
		return err
	}
	for _, r := range admitted {
		p, err := prof.prefillDur(r.PromptTokens)
		if err != nil {
			return err
		}
		dur += p
	}
	step, err := prof.decodeStep(len(inst.running))
	if err != nil {
		return err
	}
	dur += step
	inst.iterating = true
	d.cIterations.Inc()
	if tr := d.cfg.Tracer; tr != nil {
		phase := "decode"
		if len(admitted) > 0 {
			phase = "prefill+decode"
		}
		tr.RecordSpan(s.instTrack(inst), "iteration", phase, s.now, s.now+dur,
			obs.Attr{Key: "batch", Value: fmt.Sprint(len(inst.running))},
			obs.Attr{Key: "admitted", Value: fmt.Sprint(len(admitted))})
	}
	s.events.Push(s.now+dur, event{kind: evIterationEnd, inst: inst, epoch: inst.epoch})
	return nil
}

// traceQueued records a request's queueing span, which closes when an
// instance admits the request into its running batch.
func (s *simulation) traceQueued(d *depState, r *reqState) {
	d.cfg.Tracer.RecordSpan(d.name+"/queue", fmt.Sprintf("req-%d", r.ID), "queued",
		r.Arrival, s.now,
		obs.Attr{Key: "prompt_tokens", Value: fmt.Sprint(r.PromptTokens)},
		obs.Attr{Key: "turn", Value: fmt.Sprint(r.turn)})
}

// captureOnce returns the lazy graph-capture time an iteration of n
// sequences pays: under the §2.4 deferred-capture strategy the capture
// latency lands on the first iteration that needs each graph size,
// inside its serving path. It is zero for every other strategy and for
// sizes the instance already captured.
func (s *simulation) captureOnce(inst *instState, prof *profile, n int) (time.Duration, error) {
	if !prof.deferred {
		return 0, nil
	}
	gb, c, err := prof.captureCost(n)
	if err != nil || inst.captured[gb] {
		return 0, err
	}
	if inst.captured == nil {
		inst.captured = make(map[int]bool)
	}
	inst.captured[gb] = true
	return c, nil
}

// firstToken samples a request's TTFT and latches a missed TTFT
// deadline.
func (s *simulation) firstToken(d *depState, r *reqState) {
	r.ttftSeen = true
	r.firstTok = s.now
	d.sTTFT.Add(s.now - r.Arrival)
	if d.cSLOMet != nil && s.slo.TTFT > 0 && s.now-r.Arrival > s.slo.TTFT {
		r.sloViolated = true
	}
}

// complete settles a finished request: latency and SLO accounting, the
// run's completion counters, and the next conversation turn.
func (s *simulation) complete(d *depState, r *reqState) {
	d.sE2E.Add(s.now - r.Arrival)
	if d.cSLOMet != nil && !r.sloViolated {
		d.cSLOMet.Inc()
	}
	d.cCompleted.Inc()
	s.completed++
	d.outstanding--
	if s.now > d.lastDone {
		d.lastDone = s.now
	}
	if s.now > s.lastDone {
		s.lastDone = s.now
	}
	s.maybeFollowUp(r)
	s.freeReq(r)
}

// finishIteration emits one token per running request, completes
// finished ones, and starts the next iteration.
func (s *simulation) finishIteration(inst *instState) error {
	d := s.deps[inst.dep]
	if d.batched {
		return s.finishIterationBatched(inst)
	}
	inst.iterating = false
	keep := inst.running[:0]
	for _, r := range inst.running {
		r.emitted++
		if !r.ttftSeen {
			s.firstToken(d, r)
		}
		if r.emitted >= r.OutputTokens {
			inst.kvTokens -= r.PromptTokens + r.OutputTokens
			s.complete(d, r)
			continue
		}
		keep = append(keep, r)
	}
	inst.running = keep
	if len(inst.running) == 0 {
		s.markIdle(inst)
	}
	if err := s.tick(); err != nil {
		return err
	}
	return s.startIteration(inst)
}

// startIterationBatched plans one continuous-batching round through
// the instance's scheduler and prices it with the engine cost model:
// deferred graph capture (first use of a decode batch size), one
// prefill cost per planned chunk, one decode step for the whole decode
// batch. The iteration span's children tile the interval exactly —
// capture, each chunk (tagged "preempt" when it recomputes an evicted
// sequence's prefix), then decode — so phase attribution never drifts.
func (s *simulation) startIterationBatched(inst *instState) error {
	d := s.deps[inst.dep]
	peek := func() (int, int, bool) {
		if d.pending.Len() == 0 {
			return 0, 0, false
		}
		r := d.pending.Front()
		return r.PromptTokens, r.OutputTokens, true
	}
	it, err := inst.sch.Plan(peek, d.pending.PopFront)
	if err != nil {
		return err
	}
	if it.Preemptions > 0 {
		d.cPreempt.Add(int64(it.Preemptions))
	}
	if d.cfg.Tracer != nil {
		for _, q := range it.Admitted {
			s.traceQueued(d, q.Data)
		}
	}
	if it.Empty() {
		return nil
	}
	prof := s.profOf(inst)
	var captureDur time.Duration
	if len(it.Decode) > 0 {
		if captureDur, err = s.captureOnce(inst, prof, len(it.Decode)); err != nil {
			return err
		}
	}
	dur := captureDur
	chunkDur := s.scratchChunkDur[:0]
	for _, ch := range it.Chunks {
		p, err := prof.prefillDur(ch.Tokens)
		if err != nil {
			return err
		}
		chunkDur = append(chunkDur, p)
		dur += p
	}
	s.scratchChunkDur = chunkDur
	var stepDur time.Duration
	if len(it.Decode) > 0 {
		stepDur, err = prof.decodeStep(len(it.Decode))
		if err != nil {
			return err
		}
		dur += stepDur
	}
	inst.iterating = true
	d.cIterations.Inc()
	if tr := d.cfg.Tracer; tr != nil {
		phase := "decode"
		switch {
		case len(it.Chunks) > 0 && len(it.Decode) > 0:
			phase = "prefill+decode"
		case len(it.Chunks) > 0:
			phase = "prefill"
		}
		root := tr.StartSpan(s.instTrack(inst), "iteration", s.now).
			Tag(phase).
			Attr("batch", fmt.Sprint(len(it.Decode)+len(it.Chunks))).
			Attr("admitted", fmt.Sprint(len(it.Admitted))).
			Attr("preemptions", fmt.Sprint(it.Preemptions))
		off := s.now
		if captureDur > 0 {
			root.Child("graph_capture", off).Tag("capture").End(off + captureDur)
			off += captureDur
		}
		for i, ch := range it.Chunks {
			tag := "prefill"
			if ch.Seq.Preemptions() > 0 {
				tag = "preempt"
			}
			root.Child("prefill", off).Tag(tag).
				Attr("tokens", fmt.Sprint(ch.Tokens)).
				End(off + chunkDur[i])
			off += chunkDur[i]
		}
		if len(it.Decode) > 0 {
			root.Child("decode", off).Tag("decode").End(off + stepDur)
			off += stepDur
		}
		root.End(off)
	}
	s.events.Push(s.now+dur, event{kind: evIterationEnd, inst: inst, epoch: inst.epoch})
	return nil
}

// finishIterationBatched applies the elapsed round: per-token events
// feed TTFT at the first emission and TPOT (mean inter-token gap) at
// completion.
func (s *simulation) finishIterationBatched(inst *instState) error {
	d := s.deps[inst.dep]
	inst.iterating = false
	inst.sch.Finish(
		func(r *reqState, emitted int) {
			r.emitted = emitted
			if !r.ttftSeen {
				s.firstToken(d, r)
			}
		},
		func(r *reqState) {
			if r.OutputTokens > 1 {
				tpot := (s.now - r.firstTok) / time.Duration(r.OutputTokens-1)
				d.sTPOT.Add(tpot)
				if d.cSLOMet != nil && s.slo.TPOT > 0 && tpot > s.slo.TPOT {
					r.sloViolated = true
				}
			}
			s.complete(d, r)
		})
	if inst.sch.Idle() {
		s.markIdle(inst)
	}
	if err := s.tick(); err != nil {
		return err
	}
	return s.startIteration(inst)
}

// maybeFollowUp spawns the next conversation turn after a completion:
// the user reads the answer (think time), then sends a follow-up whose
// prompt carries the accumulated context.
func (s *simulation) maybeFollowUp(r *reqState) {
	d := s.deps[r.dep]
	fu := d.cfg.Workload.FollowUp
	if fu == nil || fu.Probability <= 0 {
		return
	}
	if fu.MaxTurns > 0 && r.turn >= fu.MaxTurns {
		return
	}
	if d.rng.Float64() >= fu.Probability {
		return
	}
	newTokens := fu.NewTokens
	if newTokens <= 0 {
		newTokens = workload.ShareGPTMeanPrompt / 4
	}
	next := s.newReq()
	next.Request = workload.Request{
		ID:           s.nextID,
		Arrival:      s.now + fu.ThinkTime,
		PromptTokens: r.PromptTokens + r.OutputTokens + newTokens,
		OutputTokens: r.OutputTokens,
	}
	next.dep = r.dep
	next.turn = r.turn + 1
	s.nextID++
	s.created++
	d.cFollowUps.Inc()
	s.events.Push(next.Arrival, event{kind: evArrival, req: next})
}

// markIdle stamps the instance idle and arms the retirement timer.
func (s *simulation) markIdle(inst *instState) {
	inst.idleSince = s.now
	if s.deps[inst.dep].cfg.Scheduler.IdleTimeout > 0 {
		s.events.Push(s.now+s.deps[inst.dep].cfg.Scheduler.IdleTimeout,
			event{kind: evIdleCheck, inst: inst, epoch: inst.epoch})
	}
}
