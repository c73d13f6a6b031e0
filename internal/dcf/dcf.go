// Package dcf implements the distributed domain-connectivity solution of
// DCF3D as parallelized by Barszcz (paper §2.2): per-processor bounding
// boxes broadcast globally, hierarchical donor-search requests routed by
// bounding box, request servicing on the processor owning the candidate
// donor region, forwarding across processor boundaries when a stencil walk
// exits a subdomain, nth-level restart from the previous timestep's donors,
// and per-processor received-IGBP counters I(p) that feed the dynamic load
// balancer (Algorithm 2).
package dcf

import (
	"overd/internal/geom"
	"overd/internal/grid"
	"overd/internal/overset"
	"overd/internal/par"
)

// Approximate flop costs of connectivity work, for virtual-time accounting.
// The constants are calibrated so the connectivity share of total time
// lands in the paper's ranges (10-15%% for the airfoil, ~10%% for the delta
// wing, 17-34%% for the store case): DCF3D's per-IGBP cost on the real
// machines — hole cutting against real surfaces, list formation, stretched-
// cell Newton inversions and failed hierarchy searches — was substantially
// heavier than this reproduction's analytic-geometry equivalents, so each
// unit of connectivity work carries a calibrated flop weight.
const (
	flopsPerSearchStep = 150.0 // one Newton iteration / walk move
	flopsPerHoleTest   = 50.0  // one hole-map / cutter query
	flopsPerFringeMark = 16.0
	flopsPerInterp     = 60.0 // trilinear donor interpolation, 5 components
	bytesPerRequest    = 56
	bytesPerReply      = 64
	bytesPerValue      = 48
)

// maxForwardHops bounds request forwarding chains. Genuine cross-boundary
// forwards resolve in one or two hops and topological restarts consume at
// most chainRestartBudget, so a short cap stops walks for points that are
// not in the grid at all from crawling across every subdomain.
const maxForwardHops = 5

// Part mirrors balance.Part without importing it (grid, rank, box).
type Part struct {
	Grid int
	Rank int
	Box  grid.IBox
}

// Solver carries one rank's connectivity state across timesteps.
type Solver struct {
	Cfg   *overset.Config
	Parts []Part // indexed by rank
	Rank  int    // my rank

	// The rank's connectivity state and per-solve scratch: own, or its
	// rank's in the attached Arenas.
	*bufs
	own bufs

	// ReceivedIGBPs is I(p): the number of non-local IGBP search requests
	// this rank serviced in the latest solve.
	ReceivedIGBPs int
	// Forwards counts requests forwarded across processor boundaries.
	Forwards int
	// Orphans counts local IGBPs with no donor.
	Orphans int
	// SearchSteps accumulates walk work performed by this rank.
	SearchSteps int
	// Hinted and Scratch count how many of this rank's own IGBPs used a
	// restart hint versus a from-scratch search in the latest solve.
	Hinted, Scratch int
	// HintMisses counts hinted requests that came back unresolved.
	HintMisses int

	// Fault-degradation counters, cumulative across solves and fringe
	// updates (zero on fault-free runs). LostSends counts search-request
	// batches lost beyond the retry budget, LostReplies reply batches
	// likewise (their points degrade to orphans), LostFringe fringe-value
	// batches whose receivers kept previous data.
	LostSends, LostReplies, LostFringe int

	// met caches metric handles when a registry is attached to the world
	// (nil otherwise; see metrics.go).
	met *solverMetrics

	anyLostFwds bool

	// What stays true while my grid does not move (xf is its Xform at the
	// latest solve, stamped false before the first): the subdomain's bounds
	// and the coordinate part of every donor walk served, in bufs.memo.
	// memoReqs counts the walks of the latest solve and sizes the table.
	xf       geom.Transform
	stamped  bool
	myBounds geom.Box
	memoReqs int
}

// bufs is everything a rank's solver sizes by first use: the connectivity
// state of the latest solve and the per-solve scratch. It changes host
// allocation and host time only, never modeled time. Nothing here is
// configured: buckets are sized by the world, the walk memo by the requests
// this rank served one solve ago. A solver owns one, or is lent its rank's by
// an Arenas, which hands it to the rank's next solver — after a repartition,
// or in the next run — reset, its capacities kept.
type bufs struct {
	// igbps are my owned fringe points from the latest solve.
	igbps []overset.IGBP
	// donors are parallel to igbps (Grid < 0 = orphan).
	donors []overset.Donor
	// donorRank is the rank that serves each donor.
	donorRank []int

	// restart: previous donors per packed IGBP key for nth-level restart.
	restart map[restartKey]restartHint

	// sendList: interpolation duties this rank owes others, rebuilt each
	// connectivity solve. Indexed by receiver rank; an empty slice means no
	// duties (dense per-rank buckets, reused across solves).
	sendList [][]sendEntry

	// The per-destination request/reply buckets are dense rank-indexed
	// slices: iterating them in index order IS the sorted-key order the old
	// map-based buckets had to sort into, so sends stay deterministic by
	// construction.
	//
	// outbox, outboxNext, fwdBuf, replies and vals are also the message
	// buffers: a batch is filled in place and its address sent, and nothing
	// comes back. That is safe because a rendezvous lies between a
	// receiver's last read and the sender's next write: requests sent in
	// Phase A of a round are read in Phase B of that round, and the bucket
	// is next written in Phase A of the round after (outbox and outboxNext
	// alternate, so the Phase C appends go to the other one); replies sent
	// in Phase B are read in Phase C, and the next Phase B lies behind the
	// all-reduce and a barrier; fringe values are read in the UpdateFringes
	// call that sends them, and its callers rendezvous before the next.
	// Forwards are appended to fwdbox during the very Phase B in which the
	// previous round's forwards are read, hence their copy into fwdBuf at
	// send time.
	pend       []pendingPt // dense, indexed by IGBP id
	outbox     []reqMsg    // destination rank -> queued requests
	outboxNext []reqMsg    // double buffer for lost-send requeues
	fwdbox     [][]ptReq   // destination rank -> forwards
	fwdBuf     []reqMsg    // destination rank -> forwards as sent
	replies    []repMsg    // origin rank -> computed replies
	vals       []valMsg    // origin rank -> fringe values owed, as sent
	lostFwds   [][]ptRep   // origin rank -> broken-chain failure replies
	rankBounds []geom.Box
	inbound    []par.Msg
	cands      []int     // candidate-rank scratch for advance
	candD      []float64 // distances parallel to cands
	gridIx     overset.GridRankIndex
	gridOf     []int  // scratch for rebuilding gridIx: grid per rank
	expect     []bool // fringe-update receive set, indexed by rank
	marks      []int  // fringe-mark scratch, reused per layer

	// memo is the direct-mapped table of remembered walks (see walk): empty
	// for a grid that moved or resolves directly.
	memo []walkSlot
}

// reset empties b for a new solver: nothing the last one left is read, its
// restart hints least of all (their keys are another partition's, or another
// run's, coordinates). The per-rank buckets are length-reset by the Solve that
// sizes them — the send lists here as well, because UpdateFringes reads them
// — and the memo by the first Solve, which a new solver enters unstamped.
func (b *bufs) reset() {
	b.igbps, b.donors, b.donorRank = b.igbps[:0], b.donors[:0], b.donorRank[:0]
	clear(b.restart)
	b.sendList = b.sendList[:cap(b.sendList)]
	for i := range b.sendList {
		b.sendList[i] = b.sendList[i][:0]
	}
}

// restartKey is an IGBP identity (grid, i, j, k) packed into one word: map
// lookups hash 8 bytes instead of a 4-word struct. 16 bits per field is
// far beyond any component grid dimension here.
type restartKey uint64

func packRestartKey(g, i, j, k int) restartKey {
	return restartKey(uint64(g)<<48 | uint64(i)<<32 | uint64(j)<<16 | uint64(k))
}

type restartHint struct {
	donor overset.Donor
	rank  int
}

type sendEntry struct {
	origin int // requesting rank
	id     int // IGBP index on the origin rank
	donor  overset.Donor
}

// message payload types
type ptReq struct {
	Origin int
	ID     int
	Pos    geom.Vec3
	Grid   int    // donor grid to search
	Start  [3]int // walk start hint
	Hops   int
	// Restarts counts stuck-walk restarts consumed across the chain.
	Restarts int
	// Scratch marks a from-scratch request whose start hint is generic;
	// the server picks a better start by sampling its own subdomain.
	Scratch bool
}

// chainRestartBudget bounds stuck-walk restarts per request chain.
const chainRestartBudget = 3

type reqMsg struct{ Pts []ptReq }

// Arenas holds what one world's solvers make by first use and the next
// world's can use again: every rank's bufs, message batches included (no
// batch travels: see bufs). One Arenas is shared by all of a world's solvers
// and survives repartitions (rank count is stable).
type Arenas struct {
	bufs []bufs // indexed by rank
}

// NewArenas sizes arenas for an n-rank world.
func NewArenas(n int) *Arenas {
	a := &Arenas{}
	a.Resize(n)
	return a
}

// Resize fits a to an n-rank world, while no world runs on it; what ranks
// beyond n left waits for a world that has such ranks.
func (a *Arenas) Resize(n int) { a.bufs = par.Resized(a.bufs, n) }

// UseArenas attaches the world's arenas before the first Solve: s works in
// its rank's bufs, reset. Nil leaves s its own. Affects host allocation
// behavior only.
func (s *Solver) UseArenas(a *Arenas) {
	if a != nil {
		s.bufs = &a.bufs[s.Rank]
		s.bufs.reset()
	}
}

type ptRep struct {
	ID    int
	OK    bool
	Donor overset.Donor
	Rank  int // serving rank (for restart routing and fringe updates)
}

type repMsg struct{ Results []ptRep }

type valMsg struct {
	IDs  []int
	Vals []float64 // 5 per id
}

// NewSolver builds a rank-local connectivity solver.
func NewSolver(cfg *overset.Config, parts []Part, rank int) *Solver {
	s := &Solver{Cfg: cfg, Parts: parts, Rank: rank}
	s.bufs = &s.own
	return s
}

// InvalidateRestart drops the nth-level restart hints (after repartition).
func (s *Solver) InvalidateRestart() {
	clear(s.restart)
}

// ensureWorld makes the restart map, sizes the per-rank scratch buckets and
// builds the per-grid rank index (the donor-grid candidate lookup
// accelerator: advance and rankOfCell scan only the ranks owning the donor
// grid instead of every part). Idempotent while the world size is stable.
func (s *Solver) ensureWorld() {
	if s.restart == nil {
		s.restart = make(map[restartKey]restartHint)
	}
	if n := len(s.Parts); len(s.outbox) != n {
		s.outbox = par.Resized(s.outbox, n)
		s.outboxNext = par.Resized(s.outboxNext, n)
		s.fwdbox = par.Resized(s.fwdbox, n)
		s.fwdBuf = par.Resized(s.fwdBuf, n)
		s.replies = par.Resized(s.replies, n)
		s.vals = par.Resized(s.vals, n)
		s.lostFwds = par.Resized(s.lostFwds, n)
		s.sendList = par.Resized(s.sendList, n)
		s.expect = par.Resized(s.expect, n)
	}
	s.gridOf = s.gridOf[:0]
	for _, p := range s.Parts { // Parts is rank-indexed: ascending ranks
		s.gridOf = append(s.gridOf, p.Grid)
	}
	s.gridIx = overset.BuildGridRankIndex(len(s.Cfg.Sys.Grids), s.gridOf, s.gridIx)
}

// dropSendEntry removes the interpolation duty owed to origin for the given
// IGBP id — called when the reply that would have told the origin about the
// donor was lost, so both sides forget the pairing consistently.
func (s *Solver) dropSendEntry(origin, id int) {
	entries := s.sendList[origin]
	for i := len(entries) - 1; i >= 0; i-- {
		if entries[i].id == id {
			entries = append(entries[:i], entries[i+1:]...)
			break
		}
	}
	s.sendList[origin] = entries
}

// myBox returns this rank's owned box and grid.
func (s *Solver) myBox() (int, grid.IBox) {
	p := s.Parts[s.Rank]
	return p.Grid, p.Box
}

// rankOfCell returns the rank owning the given cell (by its base point) of
// the given grid, or -1. With the per-grid rank index built it scans only
// that grid's ranks, in the same ascending order as the full-part scan.
func (s *Solver) rankOfCell(gi int, cell [3]int) int {
	if s.gridIx.Built() {
		for _, rk := range s.gridIx.Of(gi) {
			if s.Parts[rk].Box.Contains(cell[0], cell[1], cell[2]) {
				return rk
			}
		}
		return -1
	}
	for _, p := range s.Parts {
		if p.Grid == gi && p.Box.Contains(cell[0], cell[1], cell[2]) {
			return p.Rank
		}
	}
	return -1
}
