// The batched Monte Carlo kernel: shared good simulations, cone-locality
// lane groups and the word-major sweep (64-vector words as spans of the
// shared driver resume.SweepSpans), in single-cycle (P_sensitized) and
// multi-cycle (detection within a frame budget) mode.

package simulate

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/resume"
	"repro/internal/sched"
)

// mcLanes is the lane count of one Monte Carlo site group: like the batched
// EPP engine, one bit of a uint64 lane mask per site.
const mcLanes = 64

// MCStats are the work counters of one MCBatch sweep, the quantities the
// shared-good-sim design optimizes. GoodSims == Words × frames is the
// kernel's defining invariant: the good machine depends only on the vectors,
// never on the error site, so exactly one full-circuit simulation is
// performed per 64-vector word and frame — against Words × frames × Sites
// for the per-site estimators.
type MCStats struct {
	Words    int64 // 64-vector words applied
	GoodSims int64 // full-circuit good simulations (one per word and frame)
	// LaneSims and SweptMembers are the static on-path lanes and frame-cone
	// members, summed over groups, frames and words: what sweeping every
	// on-path lane would cost. They are kept for checkpoint compatibility.
	LaneSims     int64
	SweptMembers int64
	// LaneEvals counts the faulty lanes actually evaluated — those with a
	// fanin diverged from the good machine — summed over words, groups and
	// frames. It covers the words this sweep simulated, not resumed ones,
	// and is neither checkpointed nor part of resume.Counters.
	LaneEvals    int64
	Sites        int64 // error sites estimated
	Unobservable int64 // sites excluded up front (no reachable observation point)
}

// MCBatch is the batched Monte Carlo error-propagation estimator: the same
// random-vector fault-injection semantics as the per-site MonteCarlo and
// Sequential estimators, restructured so the good-machine work is shared
// across all error sites.
//
// The per-site estimators re-run the full good simulation once per site per
// word — O(sites × words) full-circuit simulations where O(words) suffices,
// because the good values depend only on the vectors. MCBatch inverts the
// loops: the outer loop claims 64-vector words (one good simulation per
// frame each, the whole good trajectory recorded), and the inner loop
// re-simulates every site group's divergence against those good values.
// Sites are packed into 64-lane groups by the cone-locality scheduler
// (sched.ConeLocality), so one pass over a group's union cone serves 64
// sites and the union stays close to a single cone; sites that reach no
// observation point are excluded from the groups entirely (their estimate is
// identically 0).
//
// Every frame of a group runs the same lane sweep in topological order,
// propagating only divergence from the good machine (as concurrent fault
// simulation does): a node's injected lanes are written in — at frame 0 the
// strike flips (the complement of each site's good value in all 64
// patterns), at frame k >= 1 the flip-flop state carried across the clock
// edge — and a gate lane is evaluated against the frame's good values only
// if one of its fanins has diverged in that lane. The sweep visits the
// injected nodes and the gate fanouts of diverged nodes, which never leaves
// the frame's cone, so no cone is stored: a frame keeps its injections and
// its static counts, and the worker keeps a divergence mask per node (the
// lanes whose faulty word differs from its good word) with lane values only
// for the nodes that diverged. Lane differences at observation points are
// the frame's detections. Every lane outside a divergence mask — including
// every value outside the frame's cone — equals the good machine's by
// construction, so per-site detection counts, and therefore every result,
// are independent of the grouping and identical at any worker count.
//
// The two modes differ only in what NewMCBatch and NewMCSeqBatch precompute:
//
//   - Single-cycle mode (NewMCBatch) has a one-frame budget, counts a
//     difference at any observation point (Circuit.IsObserved: primary
//     outputs and flip-flop D inputs) as a detection, and draws each word's
//     vectors for every source in node-ID order (the VectorSource.Fill
//     order). It is bit-exact against a per-site MonteCarlo with
//     SharedVectors set.
//
//   - Multi-cycle mode (NewMCSeqBatch) counts primary-output differences
//     only, draws the initial flip-flop state before each frame's primary
//     inputs (the multi-cycle seeding contract in the package doc), and
//     carries corrupted flip-flop state across clock edges: at each edge
//     the faulty D-input word of every flip-flop the group's error can
//     reach is latched per lane, and frame k sweeps within the exact cone
//     the divergence can have reached within k edges, whose carried
//     injections and static counts are precomputed per (group, frame). It
//     is bit-exact against a per-site Sequential with SharedVectors set.
//
// Detection is counted per site as integers: trials detected in any frame,
// and with more than one frame also trials detected in a frame >= 1 and
// per-frame detections (see Counters and FrameDetected), which is what lets
// the latch-window-weighted composition (SeqResult.PDetectWeighted) stay
// bit-exact and worker-invariant.
//
// Vectors are drawn from the shared-stream regime (one stream per word,
// seeded by (Seed, word index) — see MCOptions.SharedVectors): every site
// sees the same vectors, which is what makes the good sharing sound. Words
// are distributed over workers by the shared sweep driver
// resume.SweepSpans, one span per word. An MCBatch may be reused for
// repeated sweeps but is not safe for concurrent use.
type MCBatch struct {
	c      *netlist.Circuit
	opt    MCOptions
	frames int          // frame budget, 1 in single-cycle mode
	obs    []bool       // per node: a lane difference here is a detection
	draw   []netlist.ID // frame-0 source draw order; later frames draw c.PIs
	rank   []int32      // per node: its position in c.Topo(), the sweeps' visiting order

	groups  []mcGroup
	maxFFs  int // largest carried flip-flop set, sizes the carry scratch
	skipped int // sites excluded as unobservable

	fin      resume.Counters // final counters of the most recent successful sweep
	finEvals int64           // lanes evaluated by the most recent successful sweep
}

// mcGroup is one scheduled 64-lane site group: its sites (lane l is
// sites[l]), one sweep per frame, and in multi-cycle mode the flip-flops
// that can ever carry the group's divergence across a clock edge.
type mcGroup struct {
	sites []netlist.ID

	// frames[0] sweeps the strike cone: the union of the sites'
	// combinational forward cones. frames[k] sweeps the combinational cone
	// of the flip-flops a lane can reach within k clock edges. The cones
	// only grow with k, so later entries may repeat earlier ones once the
	// carried set reaches its fixpoint.
	frames []mcFrame

	ffIDs  []netlist.ID // flip-flops reachable by the group's divergence
	ffMask []uint64     // per ffIDs entry: lanes whose divergence can ever reach it
	ffD    []netlist.ID // D input (fanin[0]) of each carried flip-flop
}

// mcFrame is one frame's faulty sweep: the injections that seed it, sorted
// by topological rank, and the sweep's static counts. The sweep needs no
// member list: it starts at the injected nodes and follows divergence into
// gate fanouts, and every gate fanout of a cone member is itself a member.
type mcFrame struct {
	inj      []mcInject
	laneSims int64 // on-path lanes summed over the cone: the static LaneSims per sweep
	members  int64 // cone size: the static SweptMembers per sweep
}

// mcInject sets lanes of node: to the complement of the node's good value
// when slot < 0 (a strike flip), otherwise to the carried state of
// flip-flop ffIDs[slot]. A node has at most one injection per frame.
type mcInject struct {
	node  netlist.ID
	slot  int32
	lanes uint64
}

// NewMCBatch builds the estimator in single-cycle mode for circuit c:
// schedules all observable sites by cone locality and takes every 64-site
// group's injections and static counts from its union cone, extracted by
// graph.GroupCones one 64-group topological pass at a time. Only the sites,
// injections and counts are kept, so the built estimator is O(N) however
// large the cones are. The precomputed structures are shared read-only by
// all sweep workers.
func NewMCBatch(c *netlist.Circuit, opt MCOptions) *MCBatch {
	m := newMCBatch(c, opt, 1)
	for id := range m.obs {
		m.obs[id] = c.IsObserved(netlist.ID(id))
		if c.Nodes[id].IsSource() {
			m.draw = append(m.draw, netlist.ID(id))
		}
	}
	return m
}

// newMCBatch holds the construction both modes share: options, frame
// budget and the strike-frame site groups.
func newMCBatch(c *netlist.Circuit, opt MCOptions, frames int) *MCBatch {
	opt.setDefaults()
	m := &MCBatch{c: c, opt: opt, frames: frames, obs: make([]bool, c.N()), rank: make([]int32, c.N())}
	for r, id := range c.Topo() {
		m.rank[id] = int32(r)
	}
	m.groups, m.skipped = buildMCGroups(c)
	return m
}

// buildMCGroups schedules all observable sites by cone locality and builds
// every 64-site group's strike frame from its union cone (members in
// c.Topo() order, stopping at flip-flop boundaries): the strike injections
// and the static counts. The cones come from one graph.GroupCones call per
// 64 groups, each dropped before the next, so at most one pass of cones is
// alive. Each group's sites and injections are slices of shared backing
// arrays. skipped counts the sites excluded because no observation point is
// reachable.
func buildMCGroups(c *netlist.Circuit) (groups []mcGroup, skipped int) {
	// Observable sites only, in cone-locality order: a site whose signature
	// is zero reaches no observation point, so no vector can ever detect it.
	sig := c.ObsSignatures()
	order := sched.ConeLocality(c).Order
	sites := make([]netlist.ID, 0, len(order))
	for _, id := range order {
		if sig[id] != 0 {
			sites = append(sites, id)
		}
	}
	skipped = c.N() - len(sites)

	injs := make([]mcInject, len(sites))
	lanes := make([]uint64, c.N()) // on-path lanes of the group being built, by node
	fiIdx, fiArr := c.FaninCSR()
	kinds := c.Kinds()

	groups = make([]mcGroup, (len(sites)+mcLanes-1)/mcLanes)
	for g0 := 0; g0 < len(groups); g0 += 64 {
		cones, idx := graph.GroupCones(c, sites[g0*mcLanes:min((g0+64)*mcLanes, len(sites))], mcLanes)
		for k := range len(idx) - 1 {
			gi := g0 + k
			lo, hi := gi*mcLanes, min((gi+1)*mcLanes, len(sites))
			members := cones[idx[k]:idx[k+1]]
			fr := mcFrame{inj: injs[lo:lo:hi], members: int64(len(members))}
			gsites := sites[lo:hi:hi]
			for lane, site := range gsites {
				lanes[site] = 1 << uint(lane)
			}
			// Lane masks by forward propagation in topological order: a node
			// is on-path for lane l iff it is lane l's site or has an on-path
			// fanin. Non-members hold no lanes, so fanins need no membership
			// test, and the strike injections come out in topological order.
			for _, id := range members {
				mk := lanes[id]
				if mk != 0 {
					fr.inj = append(fr.inj, mcInject{node: id, slot: -1, lanes: mk})
				}
				if kinds[id].IsGate() {
					for _, f := range fiArr[fiIdx[id]:fiIdx[id+1]] {
						mk |= lanes[f]
					}
				}
				lanes[id] = mk
				fr.laneSims += int64(bits.OnesCount64(mk))
			}
			for _, id := range members {
				lanes[id] = 0
			}
			groups[gi] = mcGroup{sites: gsites, frames: []mcFrame{fr}}
		}
	}
	return groups, skipped
}

// Counters returns the final integer counters of the most recent successful
// sweep — every word, resumed and new. Later and Frames are non-nil iff the
// frame budget exceeds 1. The slices alias kernel state; treat them as
// read-only.
func (m *MCBatch) Counters() resume.Counters { return m.fin }

// Stats returns the work counters of the most recent successful sweep.
func (m *MCBatch) Stats() MCStats {
	if m.fin.Detected == nil {
		return MCStats{}
	}
	return MCStats{
		Words:        m.fin.Words,
		GoodSims:     m.fin.GoodSims,
		LaneSims:     m.fin.LaneSims,
		SweptMembers: m.fin.SweptMembers,
		LaneEvals:    m.finEvals,
		Sites:        int64(m.c.N()),
		Unobservable: int64(m.skipped),
	}
}

// FrameDetected returns the per-frame detection counters of the most recent
// successful sweep: the returned slice, indexed by node ID, counts the
// trials with a detection during frame `frame` (0 = the strike cycle). A
// trial may be detected in several frames, so the per-frame counts can sum
// to more than Detected; their union is Detected and the union over frames
// >= 1 is DetectedLater. The counters are integers folded in canonical
// (site, frame) order, identical at any worker count. The returned slice
// aliases kernel state — treat it as read-only.
func (m *MCBatch) FrameDetected(frame int) []int64 {
	if m.fin.Detected == nil || frame < 0 || frame >= m.frames {
		return nil
	}
	if m.frames == 1 {
		return m.fin.Detected
	}
	n := m.c.N()
	return m.fin.Frames[frame*n : (frame+1)*n]
}

// newCounters returns zeroed counters shaped for this kernel: per-site
// detections always, later-frame and per-frame detections only when the
// frame budget exceeds 1.
func (m *MCBatch) newCounters() resume.Counters {
	n := m.c.N()
	cnt := resume.Counters{Detected: make([]int64, n)}
	if m.frames > 1 {
		cnt.Later = make([]int64, n)
		cnt.Frames = make([]int64, m.frames*n)
	}
	return cnt
}

// sweep runs every pending word on the shared driver resume.SweepSpans,
// one span per word, across workers goroutines (0 = GOMAXPROCS) and, on
// success, records the final counters. A word's counters are folded into
// the totals in the driver's serialized report section, in the same step
// as its OnCommit, so the totals never include an uncommitted word.
// Cancellation of ctx is honored between word claims; on any abort the
// partial counters go to OnAbort (when checkpointing) and the error is
// returned.
func (m *MCBatch) sweep(ctx context.Context, workers int) error {
	words := m.opt.Words()
	tot := m.newCounters()
	var done []resume.Range
	doneBase := 0
	if r := m.opt.Resume; r != nil {
		prev := 0
		for _, rg := range r.Done {
			if rg.Lo < prev || rg.Hi <= rg.Lo || rg.Hi > words {
				return fmt.Errorf("simulate: Resume.Done range [%d,%d) is unsorted, empty or outside the sweep's %d words", rg.Lo, rg.Hi, words)
			}
			prev = rg.Hi
			doneBase += rg.Hi - rg.Lo
		}
		if c := r.Counters; c != nil {
			if len(c.Detected) != len(tot.Detected) || len(c.Later) != len(tot.Later) || len(c.Frames) != len(tot.Frames) {
				return fmt.Errorf("simulate: resumed counters have %d/%d/%d detected/later/frame entries, sweep wants %d/%d/%d",
					len(c.Detected), len(c.Later), len(c.Frames), len(tot.Detected), len(tot.Later), len(tot.Frames))
			}
			tot.Add(c)
		}
		done = r.Done
	}
	maxUnits := 0
	if m.opt.MaxNewWords > 0 {
		maxUnits = doneBase + m.opt.MaxNewWords
	}
	// ran[w] is the worker that ran word w. The driver reports a word on the
	// goroutine that ran it, so onBatch reads a worker whose tallies hold
	// exactly that word.
	ran := make([]*mcWorker, words)
	var evals int64
	snapshot := func() resume.Counters { return *tot.Clone() }
	onBatch := func(w, _ int) error {
		wk := ran[w]
		tot.Add(&wk.Counters)
		evals += wk.laneEvals
		wk.reset()
		if m.opt.OnCommit != nil {
			return m.opt.OnCommit(w, snapshot)
		}
		return nil
	}
	spans := resume.Pending(0, words, 1, done)
	_, err := resume.SweepSpans(ctx, spans, words, doneBase, workers, maxUnits, onBatch, m.opt.OnWord,
		func() (func(lo, hi int) error, error) {
			wk := m.newWorker()
			return func(w, _ int) error {
				wk.runWord(int64(w))
				ran[w] = wk
				return nil
			}, nil
		})
	if err != nil {
		var pe *resume.SweepPanicError
		if errors.As(err, &pe) && pe.Unit == "batch" {
			pe.Unit = "word"
		}
		if m.opt.OnCommit != nil && m.opt.OnAbort != nil {
			m.opt.OnAbort(tot)
		}
		return err
	}
	m.fin, m.finEvals = tot, evals
	return nil
}

// PDetectAll sweeps every word and returns the estimate for every node of
// the circuit (indexed by node ID) as a SeqResult — the multi-cycle
// detection probability in multi-cycle mode, P_sensitized with
// DetectedLater == 0 in single-cycle mode. Each 64-vector word costs
// exactly one good simulation per frame shared by all sites. On
// cancellation the partial estimate is discarded and ctx.Err() returned.
// Results are identical at any worker count.
func (m *MCBatch) PDetectAll(ctx context.Context, workers int) ([]SeqResult, error) {
	if err := m.sweep(ctx, workers); err != nil {
		return nil, err
	}
	trials := m.opt.Words() * 64
	out := make([]SeqResult, m.c.N())
	for id, d := range m.fin.Detected {
		p := float64(d) / float64(trials)
		out[id] = SeqResult{
			Site:     netlist.ID(id),
			Frames:   m.frames,
			PDetect:  p,
			StdErr:   math.Sqrt(p * (1 - p) / float64(trials)),
			Trials:   trials,
			Detected: int(d),
		}
		if m.fin.Later != nil {
			out[id].DetectedLater = int(m.fin.Later[id])
		}
	}
	return out, nil
}

// mcWorker is the per-goroutine state of one sweep: a bit-parallel engine
// for the shared good trajectory, the node-indexed divergence state of the
// faulty re-simulation, the per-lane carried flip-flop state, and the
// counters of the word it last ran, folded into the sweep totals when the
// driver reports that word.
//
// The divergence state is keyed on the node, not on a cone member, so
// nothing in it is sized by a cone. A node takes a lane slot only when it
// diverges, and the lane array grows to the most nodes that diverged in
// any one sweep. Each sweep clears only the nodes the previous sweep
// marked (held).
type mcWorker struct {
	resume.Counters
	laneEvals int64 // lanes evaluated since the last fold

	m      *MCBatch
	eng    *Engine
	good   [][]uint64   // per frame good values; the last frame aliases eng.values
	dm     []uint64     // per node: lanes whose faulty word differs from the good word
	slot   []int32      // per node: its lane slot, valid where dm is nonzero
	held   []netlist.ID // nodes with a nonzero dm in the current sweep, by slot
	lanes  []uint64     // faulty lane values, slot-major: lanes[slot*64+lane], valid where the holder's dm is set
	active []uint64     // bitset of topological ranks still to visit in the current sweep
	fan    []mcFanin    // the current node's fanins, gathered once per node
	ins    []uint64     // per-lane fanin words for logic.EvalWord (kinds other than AND/NAND/OR/NOR)
	carry  []uint64     // carried faulty flip-flop state: carry[slot*64+lane]
}

// mcFanin is one fanin of the node being evaluated: its good word, its
// divergence mask (0 when it has not diverged in this sweep) and the base
// of its lanes.
type mcFanin struct {
	good, dm uint64
	base     int
}

func (m *MCBatch) newWorker() *mcWorker {
	n := m.c.N()
	wk := &mcWorker{
		Counters: m.newCounters(),
		m:        m,
		eng:      NewEngine(m.c),
		good:     make([][]uint64, m.frames),
		dm:       make([]uint64, n),
		slot:     make([]int32, n),
		active:   make([]uint64, (n+63)/64),
		carry:    make([]uint64, m.maxFFs*mcLanes),
	}
	// Only frames before the last need their own copy: the last frame's
	// good values stay in the engine until the next word.
	for f := 0; f+1 < m.frames; f++ {
		wk.good[f] = make([]uint64, n)
	}
	wk.good[m.frames-1] = wk.eng.values
	return wk
}

func (wk *mcWorker) reset() {
	wk.Counters.Reset()
	wk.laneEvals = 0
}

// runWord applies word w's shared vectors: the good trajectory (one good
// simulation per frame), then per site group the faulty sweep of every
// frame, with flip-flop state carried across clock edges.
func (wk *mcWorker) runWord(w int64) {
	m := wk.m
	c := m.c
	n := c.N()
	eng := wk.eng
	fiIdx, fiArr := eng.fiIdx, eng.fiArr

	src := NewVectorSource(wordSeed(m.opt.Seed, w), m.opt.SourceProb)
	draw := m.draw
	for f := 0; f < m.frames; f++ {
		for _, id := range draw {
			eng.values[id] = src.Word(id)
		}
		draw = c.PIs
		eng.Run()
		wk.GoodSims++
		if f+1 < m.frames {
			// Clock edge: the snapshot makes the capture atomic, so FF-to-FF
			// chains shift by exactly one stage per cycle.
			good := wk.good[f]
			copy(good, eng.values)
			for _, ff := range c.FFs {
				eng.values[ff] = good[fiArr[fiIdx[ff]]]
			}
		}
	}
	wk.Words++

	for gi := range m.groups {
		g := &m.groups[gi]
		// det unions the per-frame detection masks detF; later unions the
		// frames >= 1 only.
		var det, later [mcLanes]uint64
		for f := range g.frames {
			fr := &g.frames[f]
			good := wk.good[f]
			var detF [mcLanes]uint64
			wk.sweep(fr, good, &detF)
			for l := range g.sites {
				det[l] |= detF[l]
			}
			if f > 0 {
				for l := range g.sites {
					later[l] |= detF[l]
				}
			}
			if wk.Frames != nil {
				for l, site := range g.sites {
					wk.Frames[f*n+int(site)] += int64(bits.OnesCount64(detF[l]))
				}
			}
			if f+1 < len(g.frames) {
				wk.capture(g, good)
			}
		}
		for l, site := range g.sites {
			wk.Detected[site] += int64(bits.OnesCount64(det[l]))
		}
		if wk.Later != nil {
			for l, site := range g.sites {
				wk.Later[site] += int64(bits.OnesCount64(later[l]))
			}
		}
	}
}

// sweep is the lane sweep of one frame against that frame's good values.
// It first clears the divergence the previous sweep left (capture has read
// it by now), then visits, in topological order, only the nodes that can
// hold divergence: those with an injection and the gate fanouts of nodes
// with a nonzero divergence mask — all inside the frame's cone. At each, it
// writes the injected lanes, evaluates the gate lanes in which some fanin
// has diverged, records the lanes that now differ from the good word in dm
// (giving the node a lane slot if any do), and ORs those differences at
// observation points into det. LaneSims and SweptMembers still advance by
// the frame's static counts.
func (wk *mcWorker) sweep(fr *mcFrame, good []uint64, det *[mcLanes]uint64) {
	fiIdx, fiArr := wk.eng.fiIdx, wk.eng.fiArr
	foIdx, foArr := wk.m.c.FanoutCSR()
	kinds := wk.eng.kinds
	obs := wk.m.obs
	rank, topo := wk.m.rank, wk.m.c.Topo()
	for _, id := range wk.held {
		wk.dm[id] = 0
	}
	wk.held = wk.held[:0]
	wk.LaneSims += fr.laneSims
	wk.SweptMembers += fr.members
	inj := fr.inj
	if len(inj) == 0 {
		return
	}
	act := wk.active
	for _, in := range inj {
		r := rank[in.node]
		act[r>>6] |= 1 << uint(r&63)
	}
	// Fanouts always sit at higher ranks, so the bitset is drained in
	// ascending order while it is being filled; hi tracks its last word.
	hi := int(rank[inj[len(inj)-1].node] >> 6)
	for aw := int(rank[inj[0].node] >> 6); aw <= hi; aw++ {
		for act[aw] != 0 {
			id := topo[aw*64+bits.TrailingZeros64(act[aw])]
			act[aw] &= act[aw] - 1
			// The node's lanes go to the next free slot, which it keeps only
			// if it diverges.
			base := len(wk.held) * mcLanes
			if base == len(wk.lanes) {
				wk.growLanes()
			}
			gv := good[id]
			var dm, injected uint64
			if len(inj) > 0 && inj[0].node == id {
				in := inj[0]
				inj = inj[1:]
				injected = in.lanes
				if in.slot < 0 {
					// A strike always diverges.
					v := ^gv
					for mm := in.lanes; mm != 0; mm &= mm - 1 {
						wk.lanes[base+bits.TrailingZeros64(mm)] = v
					}
					dm = in.lanes
				} else {
					cb := int(in.slot) * mcLanes
					for mm := in.lanes; mm != 0; mm &= mm - 1 {
						l := bits.TrailingZeros64(mm)
						if v := wk.carry[cb+l]; v != gv {
							wk.lanes[base+l] = v
							dm |= 1 << uint(l)
						}
					}
				}
			}
			if kind := kinds[id]; kind.IsGate() {
				var eval uint64
				wk.fan = wk.fan[:0]
				for _, f := range fiArr[fiIdx[id]:fiIdx[id+1]] {
					fi := mcFanin{good: good[f], dm: wk.dm[f]}
					if fi.dm != 0 {
						fi.base = int(wk.slot[f]) * mcLanes
						eval |= fi.dm
					}
					wk.fan = append(wk.fan, fi)
				}
				eval &^= injected
				isAnd := kind == logic.And || kind == logic.Nand
				if isAnd || kind == logic.Or || kind == logic.Nor {
					// Closed form: fold the fanin words straight into the
					// lane, from all-ones (AND) or zero (OR), and complement
					// for NAND and NOR.
					var v0, inv uint64
					if isAnd {
						v0 = ^uint64(0)
					}
					if kind == logic.Nand || kind == logic.Nor {
						inv = ^uint64(0)
					}
					for mm := eval; mm != 0; mm &= mm - 1 {
						l := bits.TrailingZeros64(mm)
						v := v0
						for _, fi := range wk.fan {
							w := fi.good
							if fi.dm>>uint(l)&1 == 1 {
								w = wk.lanes[fi.base+l]
							}
							if isAnd {
								v &= w
							} else {
								v |= w
							}
						}
						if v ^= inv; v != gv {
							wk.lanes[base+l] = v
							dm |= 1 << uint(l)
						}
					}
				} else {
					if cap(wk.ins) < len(wk.fan) {
						wk.ins = make([]uint64, len(wk.fan))
					}
					ins := wk.ins[:len(wk.fan)]
					for mm := eval; mm != 0; mm &= mm - 1 {
						l := bits.TrailingZeros64(mm)
						for k, fi := range wk.fan {
							v := fi.good
							if fi.dm>>uint(l)&1 == 1 {
								v = wk.lanes[fi.base+l]
							}
							ins[k] = v
						}
						if v := logic.EvalWord(kind, ins); v != gv {
							wk.lanes[base+l] = v
							dm |= 1 << uint(l)
						}
					}
				}
				wk.laneEvals += int64(bits.OnesCount64(eval))
			}
			if dm == 0 {
				continue
			}
			wk.dm[id] = dm
			wk.slot[id] = int32(len(wk.held))
			wk.held = append(wk.held, id)
			if obs[id] {
				for mm := dm; mm != 0; mm &= mm - 1 {
					l := bits.TrailingZeros64(mm)
					det[l] |= wk.lanes[base+l] ^ gv
				}
			}
			for _, o := range foArr[foIdx[id]:foIdx[id+1]] {
				if kinds[o].IsGate() {
					r := int(rank[o])
					act[r>>6] |= 1 << uint(r&63)
					hi = max(hi, r>>6)
				}
			}
		}
	}
}

// growLanes doubles the lane array (to 64 slots at first), keeping the
// slots held so far.
func (wk *mcWorker) growLanes() {
	lanes := make([]uint64, max(2*len(wk.lanes), 64*mcLanes))
	copy(lanes, wk.lanes)
	wk.lanes = lanes
}

// capture latches the carried divergence at a clock edge: for every carried
// flip-flop, the faulty D-input word per lane — the lane value where the D
// input diverged in the frame just swept (per wk.dm, which the next sweep
// clears), the good value otherwise. Reads only lanes, dm and good, writes only carry, so the edge
// is atomic like Sequential's.
func (wk *mcWorker) capture(g *mcGroup, good []uint64) {
	for j, d := range g.ffD {
		gv := good[d]
		base := j * mcLanes
		dmask, dbase := wk.dm[d], int(wk.slot[d])*mcLanes
		for mm := g.ffMask[j]; mm != 0; mm &= mm - 1 {
			l := bits.TrailingZeros64(mm)
			v := gv
			if dmask>>uint(l)&1 == 1 {
				v = wk.lanes[dbase+l]
			}
			wk.carry[base+l] = v
		}
	}
}

// wordSeed derives the deterministic vector-source seed of 64-vector word w
// in the shared-stream regime (see MCOptions.SharedVectors): every site —
// and every worker claiming the word — sees identical vectors for word w.
func wordSeed(seed uint64, w int64) uint64 {
	return seed ^ (uint64(w)*0x94d049bb133111eb + 0x2545f4914f6cdd1d)
}
