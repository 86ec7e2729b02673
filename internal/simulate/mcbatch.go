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
// Every frame of a group runs the same lane sweep over that frame's cone in
// topological order, propagating only divergence from the good machine (as
// concurrent fault simulation does): a member's injected lanes are written
// in — at frame 0 the strike flips (the complement of each site's good value
// in all 64 patterns), at frame k >= 1 the flip-flop state carried across
// the clock edge — and a gate lane is evaluated against the frame's good
// values only if one of its fanins has diverged in that lane. Each member
// keeps a divergence mask of the lanes whose faulty word differs from its
// good word, and lane differences at observation points are the frame's
// detections. Every lane outside a divergence mask — including every value
// outside the swept cone — equals the good machine's by construction, so
// per-site detection counts, and therefore every result, are independent
// of the grouping and identical at any worker count.
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
//     reach is latched per lane, and frame k sweeps the exact cone the
//     divergence can have reached within k edges, precomputed per (group,
//     frame). It is bit-exact against a per-site Sequential with
//     SharedVectors set.
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

	groups     []mcGroup
	maxMembers int // largest frame cone over groups, sizes the lane scratch
	maxFFs     int // largest carried flip-flop set, sizes the carry scratch
	skipped    int // sites excluded as unobservable

	fin      resume.Counters // final counters of the most recent successful sweep
	finEvals int64           // lanes evaluated by the most recent successful sweep
}

// mcGroup is one scheduled 64-lane site group: its sites (lane l is
// sites[l]), one sweep per frame, and in multi-cycle mode the flip-flops
// that can ever carry the group's divergence across a clock edge.
type mcGroup struct {
	sites []netlist.ID

	// frames[0] is the strike cone: the union of the sites' combinational
	// forward cones. frames[k] is the combinational cone of the flip-flops
	// a lane can reach within k clock edges. Lane masks only grow with k,
	// so later entries may alias earlier ones once the carried set reaches
	// its fixpoint.
	frames []mcFrame

	ffIDs  []netlist.ID // flip-flops reachable by the group's divergence
	ffMask []uint64     // per ffIDs entry: lanes whose divergence can ever reach it
	ffD    []netlist.ID // D input (fanin[0]) of each carried flip-flop
}

// mcFrame is one frame's faulty sweep: members in combinational topological
// order, per-member static lane masks, and the injections that seed it,
// sorted by member. An on-path lane of a member is injected if an injection
// names it, computed from its fanins otherwise.
type mcFrame struct {
	members  []netlist.ID
	mask     []uint64 // lanes on path
	inj      []mcInject
	laneSims int64 // on-path lanes summed over members: the static LaneSims per sweep
}

// staticLanes returns the on-path lane count of a frame's member masks.
func staticLanes(mask []uint64) int64 {
	var n int64
	for _, mk := range mask {
		n += int64(bits.OnesCount64(mk))
	}
	return n
}

// mcInject sets lanes of member (an index into the frame's members): to the
// complement of the member's good value when slot < 0 (a strike flip),
// otherwise to the carried state of flip-flop ffIDs[slot]. A member has at
// most one injection.
type mcInject struct {
	member int32
	slot   int32
	lanes  uint64
}

// NewMCBatch builds the estimator in single-cycle mode for circuit c:
// schedules all observable sites by cone locality and extracts every 64-site
// group's union cone in one graph.GroupCones call (64 groups per topological
// pass). The precomputed structures are shared read-only by all sweep
// workers.
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
	m := &MCBatch{c: c, opt: opt, frames: frames, obs: make([]bool, c.N())}
	m.groups, m.maxMembers, m.skipped = buildMCGroups(c)
	return m
}

// buildMCGroups schedules all observable sites by cone locality and takes
// every 64-site group's strike-frame union cone from one graph.GroupCones
// call: members in c.Topo() order, stopping at flip-flop boundaries. Each
// group's sites, members, lane masks and injections are slices of shared
// backing arrays. skipped counts the sites excluded because no observation
// point is reachable.
func buildMCGroups(c *netlist.Circuit) (groups []mcGroup, maxMembers, skipped int) {
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

	cones, idx := graph.GroupCones(c, sites, mcLanes)
	masks := make([]uint64, len(cones))
	injs := make([]mcInject, len(sites))
	lanes := make([]uint64, c.N()) // on-path lanes of the group being built, by node
	fiIdx, fiArr := c.FaninCSR()
	kinds := c.Kinds()

	groups = make([]mcGroup, len(idx)-1)
	for gi := range groups {
		lo, hi := gi*mcLanes, min((gi+1)*mcLanes, len(sites))
		a, b := idx[gi], idx[gi+1]
		fr := mcFrame{members: cones[a:b:b], mask: masks[a:b:b], inj: injs[lo:lo:hi]}
		gsites := sites[lo:hi:hi]
		for lane, site := range gsites {
			lanes[site] = 1 << uint(lane)
		}
		// Lane masks by forward propagation in topological order: a node is
		// on-path for lane l iff it is lane l's site or has an on-path fanin.
		// Non-members hold no lanes, so fanins need no membership test, and
		// the strike injections come out sorted by member.
		for i, id := range fr.members {
			mk := lanes[id]
			if mk != 0 {
				fr.inj = append(fr.inj, mcInject{member: int32(i), slot: -1, lanes: mk})
			}
			if kinds[id].IsGate() {
				for _, f := range fiArr[fiIdx[id]:fiIdx[id+1]] {
					mk |= lanes[f]
				}
			}
			lanes[id] = mk
			fr.mask[i] = mk
			fr.laneSims += int64(bits.OnesCount64(mk))
		}
		for _, id := range fr.members {
			lanes[id] = 0
		}
		maxMembers = max(maxMembers, len(fr.members))
		groups[gi] = mcGroup{sites: gsites, frames: []mcFrame{fr}}
	}
	return groups, maxMembers, skipped
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
// for the shared good trajectory, the lane-value and divergence scratch for
// faulty re-simulation, the per-lane carried flip-flop state, and the
// counters of the word it last ran, folded into the sweep totals when the
// driver reports that word.
type mcWorker struct {
	resume.Counters
	laneEvals int64 // lanes evaluated since the last fold

	m        *MCBatch
	eng      *Engine
	good     [][]uint64 // per frame good values; the last frame aliases eng.values
	lanes    []uint64   // faulty lane values, member-major: lanes[i*64+lane], valid where dm[i] is set
	dm       []uint64   // per member: lanes whose faulty word differs from the good word
	active   []uint64   // bitset of member indices still to visit in the current sweep
	fan      []mcFanin  // the current member's fanins, gathered once per member
	ins      []uint64   // per-lane fanin words for logic.EvalWord (kinds other than AND/NAND/OR/NOR)
	carry    []uint64   // carried faulty flip-flop state: carry[slot*64+lane]
	pos      []int32    // member index of node, valid where stamp == stampVal
	stamp    []int64    // int64: one epoch per (word, group, frame), never wraps in practice
	stampVal int64
}

// mcFanin is one fanin of the member being evaluated: its good word, its
// divergence mask (0 when it is not a member of the sweep) and the base of
// its lanes.
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
		lanes:    make([]uint64, m.maxMembers*mcLanes),
		dm:       make([]uint64, m.maxMembers),
		active:   make([]uint64, (m.maxMembers+63)/64),
		carry:    make([]uint64, m.maxFFs*mcLanes),
		pos:      make([]int32, n),
		stamp:    make([]int64, n),
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

// sweep is the lane sweep of one frame against that frame's good values. It
// visits, in topological order, only the members that can hold divergence:
// those with an injection and the gate fanouts of members with a nonzero
// divergence mask. At each, it writes the injected lanes, evaluates the
// gate lanes in which some fanin has diverged, records the lanes that now
// differ from the good word in dm, and ORs those differences at observation
// points into det. LaneSims and SweptMembers still advance by the frame's
// static on-path counts.
func (wk *mcWorker) sweep(fr *mcFrame, good []uint64, det *[mcLanes]uint64) {
	fiIdx, fiArr := wk.eng.fiIdx, wk.eng.fiArr
	foIdx, foArr := wk.m.c.FanoutCSR()
	kinds := wk.eng.kinds
	obs := wk.m.obs
	wk.stampVal++
	for i, id := range fr.members {
		wk.stamp[id] = wk.stampVal
		wk.pos[id] = int32(i)
		wk.dm[i] = 0
	}
	act := wk.active
	for _, in := range fr.inj {
		act[in.member>>6] |= 1 << uint(in.member&63)
	}
	inj := fr.inj
	// Fanouts always sit at higher member indices, so the bitset is drained
	// in ascending order while it is being filled.
	for aw := range act[:(len(fr.members)+63)/64] {
		for act[aw] != 0 {
			i := aw*64 + bits.TrailingZeros64(act[aw])
			act[aw] &= act[aw] - 1
			id := fr.members[i]
			base := i * mcLanes
			gv := good[id]
			var dm, injected uint64
			if len(inj) > 0 && int(inj[0].member) == i {
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
					fi := mcFanin{good: good[f]}
					if wk.stamp[f] == wk.stampVal {
						p := int(wk.pos[f])
						fi.dm, fi.base = wk.dm[p], p*mcLanes
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
			wk.dm[i] = dm
			if dm == 0 {
				continue
			}
			if obs[id] {
				for mm := dm; mm != 0; mm &= mm - 1 {
					l := bits.TrailingZeros64(mm)
					det[l] |= wk.lanes[base+l] ^ gv
				}
			}
			for _, o := range foArr[foIdx[id]:foIdx[id+1]] {
				if wk.stamp[o] == wk.stampVal && kinds[o].IsGate() {
					p := wk.pos[o]
					act[p>>6] |= 1 << uint(p&63)
				}
			}
		}
	}
	wk.LaneSims += fr.laneSims
	wk.SweptMembers += int64(len(fr.members))
}

// capture latches the carried divergence at a clock edge: for every carried
// flip-flop, the faulty D-input word per lane — the lane value where the D
// input diverged in the frame just swept (per wk.dm), the good value
// otherwise. Reads only lanes, dm and good, writes only carry, so the edge
// is atomic like Sequential's.
func (wk *mcWorker) capture(g *mcGroup, good []uint64) {
	for j, d := range g.ffD {
		gv := good[d]
		base := j * mcLanes
		var dmask uint64
		dbase := 0
		if wk.stamp[d] == wk.stampVal {
			p := int(wk.pos[d])
			dmask = wk.dm[p]
			dbase = p * mcLanes
		}
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
