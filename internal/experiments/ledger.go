package experiments

import (
	"encoding/json"
	"math"
	"slices"
)

// Experiment is one named table-producing run.
type Experiment struct {
	Name string
	Run  func(Options) Table
}

// Paper is the reproduction ledger's experiment list: every table and
// figure of the paper's evaluation, plus faults and prediction, whose
// cells are pinned but which carry no claims. `murisim -experiment all
// -o REPRO.json` runs exactly these at full scale, TestPaperGoldens pins
// them at Quick scale and BenchmarkPaper times them. Wall-clock
// measurements are not paper claims: they are the root package's
// BenchmarkFleet and BenchmarkFidelity.
var Paper = []Experiment{
	{"table1", func(Options) Table { return Table1() }},
	{"table2", func(Options) Table { return Table2() }},
	{"table4", Options.Table4},
	{"table5", Options.Table5},
	{"figure8", func(o Options) Table { _, t := o.Figure8(); return t }},
	{"figure9", Options.Figure9},
	{"figure10", Options.Figure10},
	{"figure11", Options.Figure11},
	{"figure12", Options.Figure12},
	{"figure13", Options.Figure13},
	{"figure14", Options.Figure14},
	{"faults", Options.Faults},
	{"prediction", Options.Prediction},
}

// Entry is one experiment's table as a ledger file stores it.
type Entry struct {
	Experiment string `json:"experiment"`
	Table
}

// Range is a closed interval [lo, hi]. A paper range with hi = +Inf is
// open above, which JSON carries as null.
type Range [2]float64

// wins is the paper range of a shape statement ("Muri wins", "improves
// with the cap"): a ratio of at least 1.
var wins = Range{1, math.Inf(1)}

// tolerance widens a single paper value v into v·(1 ± tolerance).
const tolerance = 0.05

func about(v float64) Range {
	return Range{math.Round(v*(1-tolerance)*1e4) / 1e4, math.Round(v*(1+tolerance)*1e4) / 1e4}
}

func (r Range) String() string {
	if math.IsInf(r[1], 1) {
		return ">= " + f2(r[0])
	} else if r[0] == r[1] {
		return f2(r[0])
	}
	return f2(r[0]) + "-" + f2(r[1])
}

func (r Range) MarshalJSON() ([]byte, error) {
	if math.IsInf(r[1], 1) {
		return json.Marshal([]any{r[0], nil})
	}
	return json.Marshal([2]float64(r))
}

func (r *Range) UnmarshalJSON(b []byte) error {
	r[1] = math.Inf(1) // a null hi leaves it open
	return json.Unmarshal(b, &[2]*float64{&r[0], &r[1]})
}

// Claim sets one of the paper's numbers beside the [min, max] of the
// measured values it covers.
type Claim struct {
	ID       string `json:"id"`
	Paper    Range  `json:"paper"`
	Measured Range  `json:"measured"`
	Verdict  string `json:"verdict"`
}

// verdict is the only judge of a claim: "reproduced" if the measured
// range overlaps the paper's, "deviates" otherwise.
func verdict(paper, measured Range) string {
	if measured[0] <= paper[1] && measured[1] >= paper[0] {
		return "reproduced"
	}
	return "deviates"
}

func claim(id string, paper Range, measured ...float64) Claim {
	m := Range{slices.Min(measured), slices.Max(measured)}
	return Claim{id, paper, m, verdict(paper, m)}
}

// shape claims a statement that must hold for every given ratio, so its
// measured value is the least of them.
func shape(id string, ratios ...float64) Claim { return claim(id, wins, slices.Min(ratios)) }

// ratio is a/b, or 0 when b is 0 (metrics.Speedup's convention).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
