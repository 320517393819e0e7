package experiments

import (
	"runtime"
	"strconv"
	"strings"
	"testing"

	rundown "repro"
	"repro/internal/core"
	"repro/internal/enable"
	"repro/internal/executive"
	"repro/internal/granule"
	"repro/internal/workload"
)

func runExp(t *testing.T, id string) *Table {
	t.Helper()
	for _, spec := range All(Goroutines{}) {
		if spec.ID == id {
			tbl, err := spec.Run(Quick)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			return tbl
		}
	}
	t.Fatalf("experiment %s not registered", id)
	return nil
}

func cell(t *testing.T, tbl *Table, row, col int) string {
	t.Helper()
	if row >= len(tbl.Rows) || col >= len(tbl.Rows[row]) {
		t.Fatalf("%s: no cell (%d,%d)", tbl.ID, row, col)
	}
	return tbl.Rows[row][col]
}

func cellFloat(t *testing.T, tbl *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell(t, tbl, row, col), "%"), 64)
	if err != nil {
		t.Fatalf("%s: cell (%d,%d) = %q not numeric", tbl.ID, row, col, cell(t, tbl, row, col))
	}
	return v
}

func TestAllRegistered(t *testing.T) {
	specs := All(Goroutines{})
	if len(specs) != 13 {
		t.Fatalf("registered %d experiments, want 13", len(specs))
	}
	for i, spec := range specs {
		want := "E" + strconv.Itoa(i+1)
		if spec.ID != want {
			t.Errorf("spec %d id = %s, want %s", i, spec.ID, want)
		}
		if spec.Title == "" || spec.Run == nil {
			t.Errorf("%s incomplete", spec.ID)
		}
	}
}

// TestE1MatchesPaperExactly pins the census table to the published values.
func TestE1MatchesPaperExactly(t *testing.T) {
	tbl := runExp(t, "E1")
	want := [][]string{
		{"universal", "6", "27%", "266", "22%"},
		{"identity", "9", "40%", "551", "46%"},
		{"null", "4", "18%", "262", "22%"},
		{"reverse-indirect", "2", "9%", "78", "6%"},
		{"forward-indirect", "1", "4%", "31", "2%"},
		{"total", "22", "100%", "1188", "100%"},
	}
	if len(tbl.Rows) != len(want) {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for i, w := range want {
		for j, cellWant := range w {
			if got := cell(t, tbl, i, j); got != cellWant {
				t.Errorf("row %d col %d = %q, want %q", i, j, got, cellWant)
			}
		}
	}
	found68 := false
	for _, n := range tbl.Notes {
		if strings.Contains(n, "68% of phases, 68% of lines") {
			found68 = true
		}
	}
	if !found68 {
		t.Error("68%/68% note missing")
	}
}

// TestE2PaperArithmetic checks the full-scale leftover arithmetic directly
// (the Quick table uses a reduced grid; the arithmetic helper must still
// reproduce 524/288/712).
func TestE2PaperArithmetic(t *testing.T) {
	tbl := runExp(t, "E2")
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Quick scale: 128x128 on 56 procs: 8192 granules, 146 each, 16 left,
	// 40 idle.
	if cell(t, tbl, 0, 3) != "146" || cell(t, tbl, 0, 4) != "16" || cell(t, tbl, 0, 5) != "40" {
		t.Errorf("quick leftover row = %v", tbl.Rows[0])
	}
	// Seam-on must beat seam-off in utilization.
	off := cellFloat(t, tbl, 1, 7)
	on := cellFloat(t, tbl, 2, 7)
	if on <= off {
		t.Errorf("seam utilization %v <= %v", on, off)
	}
}

func TestE3Shape(t *testing.T) {
	tbl := runExp(t, "E3")
	kinds := map[string]float64{}
	for i := range tbl.Rows {
		kinds[cell(t, tbl, i, 0)] = cellFloat(t, tbl, i, 3)
	}
	if kinds["null"] != 0 {
		t.Errorf("null gain = %v, want 0", kinds["null"])
	}
	for _, k := range []string{
		"universal", "identity",
		"forward-window", "forward-random",
		"reverse-window", "reverse-random",
	} {
		if kinds[k] <= 0 {
			t.Errorf("%s gain = %v, want > 0", k, kinds[k])
		}
	}
	if kinds["universal"] < kinds["reverse-random"]-3 {
		t.Errorf("universal gain %v should not trail reverse-random %v materially",
			kinds["universal"], kinds["reverse-random"])
	}
	// The window-vs-random ordering is scale-dependent (fragmentation
	// only hurts once the serial executive saturates, which needs the
	// Full-scale processor counts), so Quick mode asserts only that both
	// variants gain.
}

func TestE4KneeAtTwo(t *testing.T) {
	tbl := runExp(t, "E4")
	// Utilization at 2 tasks/proc must clearly beat 1; gains beyond 2 are
	// diminishing.
	u1 := cellFloat(t, tbl, 0, 3)
	u2 := cellFloat(t, tbl, 1, 3)
	u3 := cellFloat(t, tbl, 2, 3)
	if u2 <= u1 {
		t.Errorf("utilization at 2 (%v) not better than at 1 (%v)", u2, u1)
	}
	if (u2 - u1) < (u3-u2)*1.5 {
		t.Errorf("knee not at 2: jumps %v then %v", u2-u1, u3-u2)
	}
}

func TestE5RatioMonotoneInGrain(t *testing.T) {
	tbl := runExp(t, "E5")
	prev := 0.0
	for i := range tbl.Rows {
		r := cellFloat(t, tbl, i, 4)
		if r < prev {
			t.Errorf("ratio not monotone at row %d: %v after %v", i, r, prev)
		}
		prev = r
	}
	last := cellFloat(t, tbl, len(tbl.Rows)-1, 4)
	if last < 120 {
		t.Errorf("coarse-grain ratio %v not approaching the paper's neighbourhood", last)
	}
}

func TestE6OverlapBeatsBarrier(t *testing.T) {
	tbl := runExp(t, "E6")
	rows := map[string]float64{}
	for i := range tbl.Rows {
		rows[cell(t, tbl, i, 0)] = cellFloat(t, tbl, i, 1) // makespan
	}
	barrier := rows["barrier"]
	for _, s := range []string{"demand+inline", "demand+deferred", "presplit", "table-counters"} {
		if rows[s] >= barrier {
			t.Errorf("%s makespan %v >= barrier %v", s, rows[s], barrier)
		}
	}
}

func TestE7DeferredBoundsLoss(t *testing.T) {
	tbl := runExp(t, "E7")
	var worstInline, worstDeferred float64
	for i := range tbl.Rows {
		gain := cellFloat(t, tbl, i, 5)
		switch cell(t, tbl, i, 1) {
		case "inline":
			if gain < worstInline {
				worstInline = gain
			}
		case "deferred":
			if gain < worstDeferred {
				worstDeferred = gain
			}
		}
	}
	if worstInline > -50 {
		t.Errorf("inline worst gain %v: expected catastrophic self-defeat", worstInline)
	}
	if worstDeferred < -10 {
		t.Errorf("deferred worst gain %v: cancellation should bound the loss", worstDeferred)
	}
}

func TestE8OverlapGains(t *testing.T) {
	tbl := runExp(t, "E8")
	for i := range tbl.Rows {
		if gain := cellFloat(t, tbl, i, 3); gain <= 5 {
			t.Errorf("row %d gain %v, want clear improvement", i, gain)
		}
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := &Table{
		ID: "EX", Title: "demo", Paper: "claim",
		Columns: []string{"a", "bb"},
	}
	tbl.AddRow("x", 3)
	tbl.AddRow(1.25, "y")
	tbl.Note("note %d", 7)
	out := tbl.Format()
	for _, want := range []string{"EX — demo", "paper: claim", "a", "bb", "x", "1.250", "note: note 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
	md := tbl.Markdown()
	for _, want := range []string{"### EX", "| a | bb |", "| x | 3 |", "*note 7*"} {
		if !strings.Contains(md, want) {
			t.Errorf("Markdown missing %q:\n%s", want, md)
		}
	}
}

// TestCensusConsistencyWithEnable cross-checks that every census kind is a
// valid mapping kind with the properties E1 relies on.
func TestCensusConsistencyWithEnable(t *testing.T) {
	for _, c := range workload.Census() {
		if c.Kind >= enable.Kind(enable.NumKinds) {
			t.Errorf("census %s has invalid kind", c.Name)
		}
		if c.Lines <= 0 {
			t.Errorf("census %s has no lines", c.Name)
		}
	}
}

// TestE10ManagerComparison checks the manager head-to-head table's shape:
// every workload runs under both managers (wall-clock magnitudes are
// host-dependent and not asserted), and a manager list restricts the rows.
func TestE10ManagerComparison(t *testing.T) {
	tbl := runExp(t, "E10")
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d, want 3 workloads x 2 managers", len(tbl.Rows))
	}
	for i := 0; i < len(tbl.Rows); i += 2 {
		if cell(t, tbl, i, 0) != cell(t, tbl, i+1, 0) {
			t.Errorf("rows %d/%d compare different workloads: %q vs %q",
				i, i+1, cell(t, tbl, i, 0), cell(t, tbl, i+1, 0))
		}
		if cell(t, tbl, i, 1) != "serial" || cell(t, tbl, i+1, 1) != "sharded" {
			t.Errorf("rows %d/%d managers = %q/%q", i, i+1, cell(t, tbl, i, 1), cell(t, tbl, i+1, 1))
		}
	}

	tbl, err := E10Managers(Quick, Goroutines{Managers: []executive.ManagerKind{executive.ShardedManager}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("filtered rows = %d, want 3", len(tbl.Rows))
	}
	for i := range tbl.Rows {
		if cell(t, tbl, i, 1) != "sharded" {
			t.Errorf("filtered row %d manager = %q", i, cell(t, tbl, i, 1))
		}
	}
}

// TestE11PoolDominates pins the tenancy acceptance criteria: the tenant
// pool must beat E9's static two-stream split on total throughput, keep
// each job's makespan within 10% of running alone with overlap, raise
// utilization over sequential execution, and actually move work across
// jobs (nonzero backfill).
func TestE11PoolDominates(t *testing.T) {
	tbl := runExp(t, "E11")
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 strategies", len(tbl.Rows))
	}
	aloneBursty := cellFloat(t, tbl, 0, 1)
	aloneNarrow := cellFloat(t, tbl, 0, 2)
	seqBoth := cellFloat(t, tbl, 1, 3)
	seqUtil := cellFloat(t, tbl, 1, 4)
	splitBoth := cellFloat(t, tbl, 2, 3)
	poolBursty := cellFloat(t, tbl, 3, 1)
	poolNarrow := cellFloat(t, tbl, 3, 2)
	poolBoth := cellFloat(t, tbl, 3, 3)
	poolUtil := cellFloat(t, tbl, 3, 4)
	poolBackfill := cellFloat(t, tbl, 3, 5)

	if poolBoth >= splitBoth {
		t.Errorf("pool both-done %v not below static split %v", poolBoth, splitBoth)
	}
	if poolBoth >= seqBoth {
		t.Errorf("pool both-done %v not below sequential %v", poolBoth, seqBoth)
	}
	if poolBursty > aloneBursty*1.10 {
		t.Errorf("bursty pool makespan %v exceeds 110%% of alone %v", poolBursty, aloneBursty)
	}
	if poolNarrow > aloneNarrow*1.10 {
		t.Errorf("narrow pool makespan %v exceeds 110%% of alone %v", poolNarrow, aloneNarrow)
	}
	if poolUtil <= seqUtil {
		t.Errorf("pool utilization %v not above sequential %v", poolUtil, seqUtil)
	}
	if poolBackfill <= 0 {
		t.Errorf("pool moved no cross-job work (backfill %v)", poolBackfill)
	}
}

// TestE12AdaptiveBatch pins the adaptive-batching acceptance criteria on
// the batched-executive model: on the fine-grain identity chain the
// controller must beat the fixed default parameters and land near the
// best fixed batch (final size within one multiplicative step of the
// sweep's knee); on the coarse chain, with nothing to tune, it must match
// the default within 3%; on the hoarding chain it must shrink and clearly
// beat the default it started from.
func TestE12AdaptiveBatch(t *testing.T) {
	tbl := runExp(t, "E12")
	if len(tbl.Rows) != 15 {
		t.Fatalf("rows = %d, want 3 workloads x (4 fixed + adaptive)", len(tbl.Rows))
	}
	// Per workload block: rows base..base+3 are the fixed sweep
	// (batches 1, 4, 16, 64), base+4 is adaptive.
	util := func(r int) float64 { return cellFloat(t, tbl, r, 5) }
	makespan := func(r int) float64 { return cellFloat(t, tbl, r, 4) }
	finalBatch := func(r int) float64 { return cellFloat(t, tbl, r, 2) }
	changes := func(r int) float64 { return cellFloat(t, tbl, r, 3) }
	batches := []float64{1, 4, 16, 64}

	// Fine grain (rows 0-4): the default (fixed 16, row 2) is too small.
	fineBest, fineBestUtil := 0.0, 0.0
	for i := 0; i < 4; i++ {
		if u := util(i); u > fineBestUtil {
			fineBestUtil = u
		}
	}
	bestMk := makespan(0)
	for i := 1; i < 4; i++ {
		if m := makespan(i); m < bestMk {
			bestMk = m
		}
	}
	for i := 0; i < 4; i++ {
		if makespan(i) <= bestMk*1.02 {
			fineBest = batches[i]
			break
		}
	}
	if util(4) < util(2) {
		t.Errorf("fine: adaptive utilization %v below the fixed default %v", util(4), util(2))
	}
	if util(4) < fineBestUtil*0.9 {
		t.Errorf("fine: adaptive utilization %v not within 10%% of best fixed %v", util(4), fineBestUtil)
	}
	if changes(4) == 0 {
		t.Error("fine: controller never moved on a lock-bound workload")
	}
	if fb := finalBatch(4); fb < fineBest/2 || fb > fineBest*2 {
		t.Errorf("fine: controller settled at %v, want within one step of the knee %v", fb, fineBest)
	}

	// Coarse grain (rows 5-9): nothing to tune — match the default.
	d := util(9) - util(7)
	if d < 0 {
		d = -d
	}
	if d > 0.03*util(7) {
		t.Errorf("coarse: adaptive utilization %v not within 3%% of the fixed default %v", util(9), util(7))
	}

	// Hoarding (rows 10-14): the default hands whole phases to two
	// workers; adaptive must shrink and clearly beat it.
	if finalBatch(14) >= 16 {
		t.Errorf("hoard: controller did not shrink (final batch %v)", finalBatch(14))
	}
	if util(14) < util(12)*1.3 {
		t.Errorf("hoard: adaptive utilization %v does not clearly beat the fixed default %v",
			util(14), util(12))
	}
}

// TestE13AsyncExecutive pins the async-executive acceptance criteria.
//
// The quantitative claims are asserted in virtual time, where they are
// deterministic: on the fine-grain identity chain the Async model
// (dedicated executive processor + ready-buffer) must reach at least 1.2x
// the steals-worker utilization at 8 processors and beat it at every
// P >= 4, and on the coarse-grain chain it must stay within a few percent
// of the Sharded model (the optimistic distributed-management bound). The
// same comparison on real goroutines needs real parallelism — at least a
// core per worker plus one spare for the management goroutine — so the
// hardware assertion skips on smaller hosts (as ROADMAP notes for the PR3
// claim, wall-clock utilization claims want a multi-core host); the E13
// table itself still runs everywhere.
func TestE13AsyncExecutive(t *testing.T) {
	tbl := runExp(t, "E13")
	if len(tbl.Rows) != 12 {
		t.Fatalf("rows = %d, want 2 workloads x 2 worker counts x 3 managers", len(tbl.Rows))
	}
	order := []string{"serial", "sharded", "async"}
	for i := range tbl.Rows {
		if got, want := cell(t, tbl, i, 1), order[i%3]; got != want {
			t.Errorf("row %d manager = %q, want %q", i, got, want)
		}
	}

	// Virtual time: the deterministic form of the acceptance numbers.
	fine := func(procs int, model rundown.MgmtModel) *rundown.SimResult {
		prog, err := workload.Chain(enable.Identity, 3, 4096,
			workload.UniformCost(30, 90, 1986), 1986)
		if err != nil {
			t.Fatal(err)
		}
		res, err := simulate(prog, core.Options{
			Grain: 1, Overlap: true, Costs: core.DefaultCosts(),
		}, rundown.SimConfig{Procs: procs, Mgmt: model})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, procs := range []int{4, 6, 8} {
		s, a := fine(procs, rundown.StealsWorker), fine(procs, rundown.AsyncMgmt)
		if a.Utilization <= s.Utilization {
			t.Errorf("P=%d: async utilization %.3f not above steals-worker %.3f",
				procs, a.Utilization, s.Utilization)
		}
	}
	s8, a8 := fine(8, rundown.StealsWorker), fine(8, rundown.AsyncMgmt)
	if a8.Utilization < 1.2*s8.Utilization {
		t.Errorf("fine grain at 8: async utilization %.3f below 1.2x steals-worker %.3f",
			a8.Utilization, s8.Utilization)
	}

	coarse := func(model rundown.MgmtModel) *rundown.SimResult {
		prog, err := workload.Chain(enable.Identity, 3, 32768,
			workload.UniformCost(100, 400, 1986), 1986)
		if err != nil {
			t.Fatal(err)
		}
		res, err := simulate(prog, core.Options{
			Grain: 64, Overlap: true, Costs: core.DefaultCosts(),
		}, rundown.SimConfig{Procs: 8, Mgmt: model})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ca, cs := coarse(rundown.AsyncMgmt), coarse(rundown.ShardedMgmt)
	if ca.Utilization < 0.95*cs.Utilization {
		t.Errorf("coarse grain: async utilization %.3f not within 5%% of sharded %.3f",
			ca.Utilization, cs.Utilization)
	}

	// Hardware: one core per worker plus the management goroutine, or the
	// dedicated-processor comparison cannot physically happen.
	const hwWorkers = 8
	if runtime.NumCPU() < hwWorkers+1 {
		t.Skipf("hardware 1.2x assertion needs >= %d CPUs (have %d): a core per worker plus one spare for the management goroutine",
			hwWorkers+1, runtime.NumCPU())
	}
	hw := func(kind executive.ManagerKind) float64 {
		n := 1 << 15
		a := make([]int64, n)
		c := make([]int64, n)
		prog, err := core.NewProgram(
			&core.Phase{
				Name: "fill", Granules: n,
				Work:   func(g granule.ID) { a[g] = int64(g) * 3 },
				Enable: enable.NewIdentity(),
			},
			&core.Phase{
				Name: "scale", Granules: n,
				Work:   func(g granule.ID) { c[g] = a[g] + 1 },
				Enable: enable.NewIdentity(),
			},
			&core.Phase{
				Name: "sum", Granules: n,
				Work: func(g granule.ID) { a[g] = c[g] ^ a[g] },
			},
		)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Goroutines{}.runOnGoroutines(prog, core.Options{
			Grain: 1, Overlap: true, IdentityVia: core.IdentityTable,
			Costs: core.DefaultCosts(),
		}, hwWorkers, kind)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Utilization
	}
	// Wall-clock is noisy even on a big host: take the best of three
	// attempts before declaring the structural claim violated.
	for attempt := 0; ; attempt++ {
		serial, async := hw(executive.SerialManager), hw(executive.AsyncManager)
		if async >= 1.2*serial {
			break
		}
		if attempt == 2 {
			t.Errorf("hardware fine grain at %d workers: async utilization %.4f below 1.2x serial %.4f",
				hwWorkers, async, serial)
			break
		}
	}
}

// TestE9BatchVsOverlap checks the introduction's trade-off: batching
// lengthens the per-job wall-clock while overlap shortens it, and both
// raise utilization over the barrier baseline.
func TestE9BatchVsOverlap(t *testing.T) {
	tbl := runExp(t, "E9")
	aloneMk := cellFloat(t, tbl, 0, 2)
	batchMk := cellFloat(t, tbl, 1, 2)
	overlapMk := cellFloat(t, tbl, 2, 2)
	if batchMk <= aloneMk*1.5 {
		t.Errorf("batch per-job makespan %v should be far above alone %v", batchMk, aloneMk)
	}
	if overlapMk >= aloneMk {
		t.Errorf("overlap per-job makespan %v should beat alone %v", overlapMk, aloneMk)
	}
	aloneU := cellFloat(t, tbl, 0, 4)
	batchU := cellFloat(t, tbl, 1, 4)
	overlapU := cellFloat(t, tbl, 2, 4)
	if batchU <= aloneU || overlapU <= aloneU {
		t.Errorf("both alternatives should raise utilization: alone %v batch %v overlap %v",
			aloneU, batchU, overlapU)
	}
}
