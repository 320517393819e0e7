package paxlang

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/enable"
	"repro/internal/granule"
	"repro/internal/sim"
)

func TestLexBasics(t *testing.T) {
	toks, err := Lex("DISPATCH alpha ! comment\n  ENABLE/MAPPING=UNIVERSAL\n")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []Kind{DISPATCH, IDENT, EOL, ENABLE, SLASH, MAPPING, EQUALS, IDENT, EOL, EOF}
	if len(toks) != len(kinds) {
		t.Fatalf("tokens = %v", toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Fatalf("token %d = %v, want %v", i, toks[i], k)
		}
	}
	if toks[1].Text != "alpha" || toks[1].Pos.Line != 1 {
		t.Errorf("ident token %v", toks[1])
	}
}

func TestLexRelops(t *testing.T) {
	toks, err := Lex("IF (MOD(LOOPCOUNTER,10).NE.0) THEN GO TO lbl")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tok := range toks {
		if tok.Kind == RELOP && tok.Text == "NE" {
			found = true
		}
	}
	if !found {
		t.Fatalf(".NE. not lexed: %v", toks)
	}
	if _, err := Lex("IF (A .XX. B)"); err == nil {
		t.Error("bad relop accepted")
	}
	if _, err := Lex("DISPATCH @"); err == nil {
		t.Error("bad character accepted")
	}
}

func TestLexCaseInsensitiveKeywords(t *testing.T) {
	toks, err := Lex("dispatch p1")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != DISPATCH {
		t.Errorf("lower-case keyword not recognized: %v", toks[0])
	}
}

const paperFragment = `
! The paper's branch-preprocessing construct, spelled with underscores.
DEFINE PHASE stage GRANULES 64
DEFINE PHASE phase_1 GRANULES 64
DEFINE PHASE phase_2 GRANULES 64

SET LOOPCOUNTER = 20

DISPATCH stage
  ENABLE/BRANCHINDEPENDENT
  [ phase_1/MAPPING=IDENTITY
    phase_2/MAPPING=UNIVERSAL ]
IF (MOD(LOOPCOUNTER,10).NE.0) THEN GO TO branch_target
DISPATCH phase_1
GO TO rejoin
branch_target:
DISPATCH phase_2
rejoin:
`

func TestParsePaperFragment(t *testing.T) {
	f, err := Parse(paperFragment)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(f); err != nil {
		t.Fatal(err)
	}
	var dispatches, defines, labels int
	for _, st := range f.Stmts {
		switch st.(type) {
		case *DispatchStmt:
			dispatches++
		case *DefineStmt:
			defines++
		case *LabelStmt:
			labels++
		}
	}
	if defines != 3 || dispatches != 3 || labels != 2 {
		t.Fatalf("defines=%d dispatches=%d labels=%d", defines, dispatches, labels)
	}
}

func TestInterpretPaperFragmentTakesIdentityArm(t *testing.T) {
	// LOOPCOUNTER=20: MOD(20,10)=0, so .NE.0 is false, fall through to
	// DISPATCH phase_1; the branch-independent clause declares identity
	// for that arm.
	f, err := Parse(paperFragment)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Interpret(f, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dispatches) != 2 {
		t.Fatalf("dispatches = %+v", res.Dispatches)
	}
	if res.Dispatches[0].Phase != "stage" || res.Dispatches[1].Phase != "phase_1" {
		t.Fatalf("executed path = %+v", res.Dispatches)
	}
	if res.Dispatches[0].Mapping != enable.Identity || !res.Dispatches[0].Verified {
		t.Fatalf("stage mapping = %+v", res.Dispatches[0])
	}
	if res.Program.Phases[0].EnableKind() != enable.Identity {
		t.Fatalf("program mapping = %v", res.Program.Phases[0].EnableKind())
	}
}

func TestInterpretOtherArm(t *testing.T) {
	src := strings.Replace(paperFragment, "SET LOOPCOUNTER = 20", "SET LOOPCOUNTER = 21", 1)
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Interpret(f, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dispatches[1].Phase != "phase_2" {
		t.Fatalf("executed path = %+v", res.Dispatches)
	}
	if res.Dispatches[0].Mapping != enable.Universal {
		t.Fatalf("stage mapping = %v", res.Dispatches[0].Mapping)
	}
}

func TestInterlockViolation(t *testing.T) {
	src := `
DEFINE PHASE a GRANULES 8
DEFINE PHASE b GRANULES 8
DEFINE PHASE c GRANULES 8
DISPATCH a ENABLE [ b/MAPPING=IDENTITY ]
DISPATCH c
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Interpret(f, nil, Options{})
	if err == nil || !strings.Contains(err.Error(), "interlock") {
		t.Fatalf("interlock violation not caught: %v", err)
	}
}

func TestBranchDependentForcesNull(t *testing.T) {
	src := `
DEFINE PHASE a GRANULES 8
DEFINE PHASE b GRANULES 8
DISPATCH a ENABLE/BRANCHDEPENDENT
DISPATCH b
`
	f, _ := Parse(src)
	res, err := Interpret(f, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Program.Phases[0].EnableKind() != enable.Null {
		t.Fatal("branch-dependent dispatch should yield null mapping")
	}
	if res.Dispatches[0].Mapping != enable.Null || !res.Dispatches[0].Verified {
		t.Fatalf("dispatch record = %+v", res.Dispatches[0])
	}
}

func TestInlineClauseUnverified(t *testing.T) {
	src := `
DEFINE PHASE a GRANULES 8
DEFINE PHASE b GRANULES 8
DISPATCH a ENABLE/MAPPING=UNIVERSAL
DISPATCH b
`
	f, _ := Parse(src)
	res, err := Interpret(f, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dispatches[0].Mapping != enable.Universal || res.Dispatches[0].Verified {
		t.Fatalf("inline clause record = %+v", res.Dispatches[0])
	}
}

func TestDefineTimeEnableList(t *testing.T) {
	src := `
DEFINE PHASE a GRANULES 8 ENABLE [ b/MAPPING=IDENTITY c/MAPPING=UNIVERSAL ]
DEFINE PHASE b GRANULES 8
DEFINE PHASE c GRANULES 8
DISPATCH a
DISPATCH c
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Interpret(f, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Define-time list: c follows a, so the universal entry applies.
	if res.Program.Phases[0].EnableKind() != enable.Universal {
		t.Fatalf("mapping = %v", res.Program.Phases[0].EnableKind())
	}
	if !res.Dispatches[0].Verified {
		t.Fatal("define-time list should count as verified")
	}
}

func TestLoopUnrollsWithInstanceNames(t *testing.T) {
	src := `
DEFINE PHASE sweep GRANULES 16 ENABLE [ sweep/MAPPING=IDENTITY ]
SET i = 0
top:
DISPATCH sweep
SET i = i + 1
IF (i .LT. 3) THEN GO TO top
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Interpret(f, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Program.Phases) != 3 {
		t.Fatalf("phases = %d", len(res.Program.Phases))
	}
	names := []string{"sweep", "sweep#1", "sweep#2"}
	for i, want := range names {
		if res.Program.Phases[i].Name != want {
			t.Fatalf("phase %d name = %q, want %q", i, res.Program.Phases[i].Name, want)
		}
	}
	// Self-enable via define list: identity between consecutive sweeps.
	if res.Program.Phases[0].EnableKind() != enable.Identity {
		t.Fatal("loop mapping not identity")
	}
	// The unrolled program runs.
	if _, err := sim.Run(context.Background(), []sim.JobSpec{{Prog: res.Program,
		Opt: core.Options{Grain: 2, Overlap: true, Costs: core.DefaultCosts()}}},
		sim.Config{Procs: 4, Mgmt: sim.Dedicated}); err != nil {
		t.Fatal(err)
	}
}

func TestIndirectDefaultMaps(t *testing.T) {
	src := `
DEFINE PHASE a GRANULES 16
DEFINE PHASE b GRANULES 16
DEFINE PHASE c GRANULES 16
DISPATCH a ENABLE [ b/MAPPING=REVERSE ]
DISPATCH b ENABLE [ c/MAPPING=FORWARD ]
DISPATCH c
`
	f, _ := Parse(src)
	res, err := Interpret(f, &Registry{Seed: 7}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Program.Phases[0].EnableKind() != enable.ReverseIndirect ||
		res.Program.Phases[1].EnableKind() != enable.ForwardIndirect {
		t.Fatalf("kinds = %v %v", res.Program.Phases[0].EnableKind(), res.Program.Phases[1].EnableKind())
	}
	if _, err := sim.Run(context.Background(), []sim.JobSpec{{Prog: res.Program,
		Opt: core.Options{Grain: 2, Overlap: true, Elevate: true, Costs: core.DefaultCosts()}}},
		sim.Config{Procs: 4, Mgmt: sim.Dedicated}); err != nil {
		t.Fatal(err)
	}
}

func TestSeamDefaultMap(t *testing.T) {
	src := `
DEFINE PHASE a GRANULES 12
DEFINE PHASE b GRANULES 12
DISPATCH a ENABLE [ b/MAPPING=SEAM ]
DISPATCH b
`
	f, _ := Parse(src)
	res, err := Interpret(f, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := res.Program.Phases[0].Enable
	if spec.Kind != enable.Seam {
		t.Fatalf("kind = %v", spec.Kind)
	}
	reqs := spec.Requires(5)
	if len(reqs) != 3 {
		t.Fatalf("seam requires(5) = %v", reqs)
	}
}

func TestRegistryImplBinding(t *testing.T) {
	sum := 0
	reg := &Registry{
		Impls: map[string]PhaseImpl{
			"work": {Work: func(g granule.ID) { sum += int(g) }},
		},
	}
	src := `
DEFINE PHASE work GRANULES 10 COST 3
DISPATCH work
`
	f, _ := Parse(src)
	res, err := Interpret(f, reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Program.Phases[0].Work == nil {
		t.Fatal("work not bound")
	}
	if res.Program.Phases[0].GranuleCost(0) != 3 {
		t.Fatal("COST expression not applied")
	}
}

func TestSerialPhaseRules(t *testing.T) {
	// Serial phase after a declared overlap mapping is rejected.
	src := `
DEFINE PHASE a GRANULES 4
DEFINE PHASE b GRANULES 4 SERIAL 10
DISPATCH a ENABLE [ b/MAPPING=IDENTITY ]
DISPATCH b
`
	f, _ := Parse(src)
	if _, err := Interpret(f, nil, Options{}); err == nil {
		t.Fatal("serial successor with non-null mapping accepted")
	}
	// With a null path it is fine.
	src2 := `
DEFINE PHASE a GRANULES 4
DEFINE PHASE b GRANULES 4 SERIAL 10
DISPATCH a
DISPATCH b
`
	f2, _ := Parse(src2)
	res, err := Interpret(f2, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Program.Phases[1].SerialCost != 10 {
		t.Fatal("serial cost lost")
	}
}

func TestCheckErrors(t *testing.T) {
	cases := map[string]string{
		"goto undefined":     "DEFINE PHASE a GRANULES 1\nGO TO nowhere\n",
		"if undefined":       "DEFINE PHASE a GRANULES 1\nIF (1 .EQ. 1) THEN GO TO nowhere\n",
		"dispatch undefined": "DISPATCH ghost\n",
		"enable undefined":   "DEFINE PHASE a GRANULES 1\nDISPATCH a ENABLE [ ghost/MAPPING=IDENTITY ]\n",
		"duplicate label":    "DEFINE PHASE a GRANULES 1\nx:\nx:\n",
		"duplicate define":   "DEFINE PHASE a GRANULES 1\nDEFINE PHASE a GRANULES 2\n",
		"define-enable ref":  "DEFINE PHASE a GRANULES 1 ENABLE [ ghost/MAPPING=IDENTITY ]\n",
	}
	for name, src := range cases {
		f, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: parse error %v", name, err)
		}
		if err := Check(f); err == nil {
			t.Errorf("%s: Check passed, want error", name)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"DEFINE alpha",                          // missing PHASE
		"DEFINE PHASE p",                        // missing GRANULES
		"DISPATCH p ENABLE",                     // dangling ENABLE
		"DISPATCH p ENABLE/",                    // dangling slash
		"DISPATCH p ENABLE [ ]",                 // empty list
		"DISPATCH p ENABLE [ q/MAPPING=bogus ]", // bad option
		"SET = 4",                               // missing var
		"IF (1 .EQ. 1) GO TO x",                 // missing THEN
		"p q",                                   // stray identifiers
		"DEFINE PHASE p GRANULES (3",            // unbalanced paren
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestInterpErrors(t *testing.T) {
	cases := map[string]string{
		"undefined var": "DEFINE PHASE a GRANULES n\nDISPATCH a\n",
		"negative gran": "DEFINE PHASE a GRANULES 0 - 4\nDISPATCH a\n",
		"div by zero":   "SET x = 1/0\nDEFINE PHASE a GRANULES 1\nDISPATCH a\n",
		"mod by zero":   "SET x = MOD(3,0)\nDEFINE PHASE a GRANULES 1\nDISPATCH a\n",
		"no dispatches": "DEFINE PHASE a GRANULES 4\n",
		"bad cost":      "DEFINE PHASE a GRANULES 4 COST 0\nDISPATCH a\n",
	}
	for name, src := range cases {
		f, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: parse error %v", name, err)
		}
		if _, err := Interpret(f, nil, Options{}); err == nil {
			t.Errorf("%s: interpretation passed, want error", name)
		}
	}
}

func TestInfiniteLoopGuard(t *testing.T) {
	src := "DEFINE PHASE a GRANULES 1\ntop:\nGO TO top\n"
	f, _ := Parse(src)
	if _, err := Interpret(f, nil, Options{MaxSteps: 100}); err == nil {
		t.Fatal("infinite loop not caught")
	}
}

func TestMaxDispatchGuard(t *testing.T) {
	src := `
DEFINE PHASE a GRANULES 1
SET i = 0
top:
DISPATCH a
SET i = i + 1
IF (i .LT. 100) THEN GO TO top
`
	f, _ := Parse(src)
	if _, err := Interpret(f, nil, Options{MaxDispatches: 5}); err == nil {
		t.Fatal("dispatch limit not enforced")
	}
}

func TestExprArithmetic(t *testing.T) {
	src := `
SET n = 2 + 3 * 4
SET m = (2 + 3) * 4
SET k = 0 - 2 + n
DEFINE PHASE a GRANULES n + m - k
DISPATCH a
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Interpret(f, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// n=14, m=20, k=12 -> granules 22
	if res.Program.Phases[0].Granules != 22 {
		t.Fatalf("granules = %d, want 22", res.Program.Phases[0].Granules)
	}
}

func TestTokenStrings(t *testing.T) {
	if DISPATCH.String() != "DISPATCH" || Kind(200).String() == "" {
		t.Error("Kind.String broken")
	}
	tok := Token{Kind: IDENT, Text: "x"}
	if !strings.Contains(tok.String(), "x") {
		t.Error("Token.String broken")
	}
	if (Pos{Line: 2, Col: 3}).String() != "2:3" {
		t.Error("Pos.String broken")
	}
	for _, m := range []ClauseMode{ClauseInline, ClauseList, ClauseBranchIndependent, ClauseBranchDependent, ClauseMode(9)} {
		if m.String() == "" {
			t.Error("ClauseMode.String broken")
		}
	}
}
