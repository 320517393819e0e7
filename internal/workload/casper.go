package workload

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/enable"
	"repro/internal/granule"
)

// CasperPhase is one entry of the PAX/CASPER parallel-phase census: the
// phase's name, the enablement-mapping kind relating it to its successor,
// and its weight in parallel source lines. The paper reports only per-class
// totals (phases and lines); the per-phase split below distributes each
// class total as evenly as possible over plausibly named CFD pipeline
// stages, preserving the published class sums exactly.
type CasperPhase struct {
	Name  string
	Kind  enable.Kind
	Lines int
}

// Census returns the 22-phase PAX/CASPER profile. Class totals match the
// paper exactly:
//
//	universal        6 phases, 266 lines
//	identity         9 phases, 551 lines
//	null             4 phases, 262 lines
//	reverse-indirect 2 phases,  78 lines
//	forward-indirect 1 phase,   31 lines
//	total           22 phases, 1188 lines
func Census() []CasperPhase {
	return []CasperPhase{
		{Name: "metric-setup", Kind: enable.Universal, Lines: 45},
		{Name: "power-compression", Kind: enable.Universal, Lines: 45},
		{Name: "interp-matrix", Kind: enable.Identity, Lines: 62},
		{Name: "flux-predict", Kind: enable.Identity, Lines: 62},
		{Name: "flux-correct", Kind: enable.Identity, Lines: 61},
		{Name: "smooth-x", Kind: enable.Identity, Lines: 61},
		{Name: "smooth-y", Kind: enable.Identity, Lines: 61},
		{Name: "residual-gather", Kind: enable.ReverseIndirect, Lines: 39},
		{Name: "residual-norm", Kind: enable.Null, Lines: 66},
		{Name: "bc-update", Kind: enable.Universal, Lines: 44},
		{Name: "pressure-red", Kind: enable.Identity, Lines: 61},
		{Name: "pressure-black", Kind: enable.Identity, Lines: 61},
		{Name: "velocity-update", Kind: enable.Identity, Lines: 61},
		{Name: "scatter-corrections", Kind: enable.ForwardIndirect, Lines: 31},
		{Name: "structural-loads", Kind: enable.Universal, Lines: 44},
		{Name: "modal-project", Kind: enable.ReverseIndirect, Lines: 39},
		{Name: "modal-advance", Kind: enable.Null, Lines: 66},
		{Name: "mesh-move", Kind: enable.Universal, Lines: 44},
		{Name: "jacobian-update", Kind: enable.Identity, Lines: 61},
		{Name: "timestep-limit", Kind: enable.Null, Lines: 65},
		{Name: "io-pack", Kind: enable.Universal, Lines: 44},
		{Name: "checkpoint", Kind: enable.Null, Lines: 65},
	}
}

// CensusTotals aggregates a census by mapping kind, returning phase counts
// and line counts per kind plus overall totals.
func CensusTotals(census []CasperPhase) (phases map[enable.Kind]int, lines map[enable.Kind]int, totalPhases, totalLines int) {
	phases = make(map[enable.Kind]int)
	lines = make(map[enable.Kind]int)
	for _, c := range census {
		phases[c.Kind]++
		lines[c.Kind] += c.Lines
		totalPhases++
		totalLines += c.Lines
	}
	return phases, lines, totalPhases, totalLines
}

// CasperConfig controls materialization of the census into a runnable
// program.
type CasperConfig struct {
	// GranulesPerLine scales phase sizes: granules = Lines *
	// GranulesPerLine (minimum 1 granule per phase). Default 4.
	GranulesPerLine int
	// Cycles unrolls the 22-phase cycle this many times (default 1),
	// modelling CASPER's iterative time-stepping.
	Cycles int
	// Cost is the per-granule cost model (nil = unit cost).
	Cost core.CostFn
	// SerialCost is charged for each null mapping's between-phase serial
	// action (the "serial actions and decisions" the paper observed).
	SerialCost core.Cost
	// Seed drives the dynamically generated information selection maps
	// of the indirect phases.
	Seed uint64
	// Fan is the gather width of reverse-indirect phases (default 4).
	Fan int
}

// CasperProgram materializes the census into a core.Program. The final
// phase of the last cycle carries no successor mapping.
func CasperProgram(cfg CasperConfig) (*core.Program, error) {
	census := Census()
	if cfg.GranulesPerLine <= 0 {
		cfg.GranulesPerLine = 4
	}
	if cfg.Cycles <= 0 {
		cfg.Cycles = 1
	}
	if cfg.Fan <= 0 {
		cfg.Fan = 4
	}

	var phases []*core.Phase
	for cyc := 0; cyc < cfg.Cycles; cyc++ {
		for i, c := range census {
			name := c.Name
			if cfg.Cycles > 1 {
				name = fmt.Sprintf("%s#%d", c.Name, cyc)
			}
			n := c.Lines * cfg.GranulesPerLine
			if n < 1 {
				n = 1
			}
			phases = append(phases, &core.Phase{
				Name:     name,
				Granules: n,
				Cost:     cfg.Cost,
				Lines:    c.Lines,
			})
			_ = i
		}
	}

	// Wire successor mappings. Phase k's spec depends on its census kind
	// and the size of phase k+1.
	for k := 0; k < len(phases)-1; k++ {
		c := census[k%len(census)]
		nPred := phases[k].Granules
		nSucc := phases[k+1].Granules
		switch c.Kind {
		case enable.Null:
			phases[k].Enable = nil
			phases[k+1].SerialCost = cfg.SerialCost
		case enable.Universal:
			phases[k].Enable = enable.NewUniversal()
		case enable.Identity:
			phases[k].Enable = enable.NewIdentity()
		case enable.ForwardIndirect:
			imap := RandomIMap(nPred, nSucc, cfg.Seed+uint64(k))
			phases[k].Enable = enable.NewForwardIMAP(imap)
		case enable.ReverseIndirect:
			imap := RandomIMap(nSucc*cfg.Fan, nPred, cfg.Seed+uint64(k))
			phases[k].Enable = enable.NewReverseIMAP(imap, cfg.Fan)
		}
	}
	return core.NewProgram(phases...)
}

// RandomIMap generates a deterministic pseudo-random information selection
// map of length n with values in [0, limit) — the paper's "IMAP(J,I) =
// IRAND()" setup phase.
func RandomIMap(n, limit int, seed uint64) []granule.ID {
	if limit < 1 {
		limit = 1
	}
	out := make([]granule.ID, n)
	for i := range out {
		out[i] = granule.ID(splitmix64(seed^uint64(i*2654435761)) % uint64(limit))
	}
	return out
}

// Chain builds a linear program of identical phases with one mapping kind
// between each pair — the basic unit of the mapping sweep (E3).
func Chain(kind enable.Kind, phases, granules int, cost core.CostFn, seed uint64) (*core.Program, error) {
	if phases < 1 {
		return nil, fmt.Errorf("workload: chain needs at least one phase")
	}
	out := make([]*core.Phase, phases)
	for i := range out {
		out[i] = &core.Phase{
			Name:     fmt.Sprintf("phase%d", i),
			Granules: granules,
			Cost:     cost,
		}
	}
	// A seam chain's pairs all declare the same relation over the same
	// sizes: one Spec, compiled once for the whole chain.
	var seam *enable.Spec
	if kind == enable.Seam {
		seam = enable.NewSeam(seamNeighbours(granules))
	}
	for i := 0; i < phases-1; i++ {
		switch kind {
		case enable.Null:
			out[i].Enable = nil
		case enable.Universal:
			out[i].Enable = enable.NewUniversal()
		case enable.Identity:
			out[i].Enable = enable.NewIdentity()
		case enable.ForwardIndirect:
			out[i].Enable = enable.NewForwardIMAP(RandomIMap(granules, granules, seed+uint64(i)))
		case enable.ReverseIndirect:
			out[i].Enable = enable.NewReverseIMAP(RandomIMap(granules*2, granules, seed+uint64(i)), 2)
		case enable.Seam:
			out[i].Enable = seam
		default:
			return nil, fmt.Errorf("workload: unknown kind %v", kind)
		}
	}
	return core.NewProgram(out...)
}

// seamNeighbours is the one-dimensional stencil of a seam chain: successor
// granule r requires current granules r-1, r and r+1, clipped to [0, n).
// Neighbour rows are consecutive IDs, so every row is a window of one flat
// array and evaluating the mapping allocates nothing.
func seamNeighbours(n int) enable.RequiresFn {
	ids := make([]granule.ID, n)
	for i := range ids {
		ids[i] = granule.ID(i)
	}
	return func(r granule.ID) []granule.ID {
		return ids[max(int(r)-1, 0):min(int(r)+2, n)]
	}
}
