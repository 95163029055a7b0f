package metablocking

import (
	"sync"

	"sparker/internal/kernel"
)

// neighbourScratch is the flat-array neighbourhood kernel: the
// allocation-free replacement of the historical
// map[profile.ID]*EdgeStats, instantiated from the shared
// kernel.Scratch primitive (dense ID-indexed slots, epoch-stamped
// O(touched) clears). One scratch serves one worker at a time: the
// sequential Run reuses a single one, RunDistributed leases one per
// dataflow task from the graphContext's sync.Pool.
type neighbourScratch struct {
	kernel.Scratch[EdgeStats]
	// nws is the reusable buffer weightedNeighbours returns; callers must
	// consume it before the next weightedNeighbours call on this scratch.
	nws []neighbourWeight
	// wbuf is the reusable weight buffer of kthLargestWeight.
	wbuf []float64
}

// newNeighbourScratch sizes a scratch for profile IDs in [0, n).
func newNeighbourScratch(n int) *neighbourScratch {
	return &neighbourScratch{Scratch: *kernel.NewScratch[EdgeStats](n)}
}

// scratchPool hands out neighbourScratches sized for one graphContext.
type scratchPool struct {
	n    int
	pool sync.Pool
}

func (p *scratchPool) get() *neighbourScratch {
	if s, ok := p.pool.Get().(*neighbourScratch); ok {
		return s
	}
	return newNeighbourScratch(p.n)
}

func (p *scratchPool) put(s *neighbourScratch) { p.pool.Put(s) }
