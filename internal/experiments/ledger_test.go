package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// paperGoldens pins SHA-256 over the JSON of every Paper experiment's
// table at Quick scale — cells and claims alike — so a code change that
// moves any quick-scale cell fails here. If a deliberate behavior change
// lands, blank the affected entries and re-run the test: it prints the
// fresh hash for any unset entry. Full-scale cells are pinned by the
// committed REPRO.json (`murisim -experiment all -o` and diff).
var paperGoldens = map[string]string{
	"table1":     "e91ae462ed5c42149652dfcebcd8921df62e6c86c09718080cf6f00b3705ac80",
	"table2":     "ba0577399740513fce4eba7d4b5b1219dc2e2ef2ab3bcd8683c43119b0625ca8",
	"table4":     "adfda95b07f9f60490c5237428463ed17043443fc191818737ff6037d4a96420",
	"table5":     "0778ddcecae8f12368697ddef1035d15cc426a392cf0f7898299fb51fcc72d31",
	"figure8":    "ce38f8c3ecfe0d230775b77ee11c06a390d307dc5d02b8d8fdcbfb5efa979e87",
	"figure9":    "7820c92a5a5bbf3c4396c50a99a0dea488763e51d2a6a7f67440aa4b11a273f3",
	"figure10":   "8e118cc5f0642c2177826cb8e3e15e1c30d666a982039565128e94b3691d9dcc",
	"figure11":   "59c8a790c501e60d69c20771481e2e12fa3232743a4ca1a76a147c698205b5b8",
	"figure12":   "7ed0439255bf0052b4f9b9bfb93ee210efa74cf73111c6183574a04d8d1b7320",
	"figure13":   "4299fb6b17dcc9eca730e9c23953cd0ed6aa76ee3518c928cacd8ed3a29eda5b",
	"figure14":   "4df7155506376870bcfc0b93baf53f1ab329774a5233de9c04e1c0482a0e8a3d",
	"faults":     "1dc9bd21157b203efee1b2dd048ae5ac9c8aa6d72c4fe2228c7005d9a40ca6d2",
	"prediction": "313e3aa3c0e2e8852a53629dc70bc06e74c2a28fe75eabd8e006d67d13be1aea",
}

func TestPaperGoldens(t *testing.T) {
	if raceEnabled {
		// ~80 s under the detector on 2 vCPUs; the parallel harness's
		// races are covered by TestSweepDeterministic.
		t.Skip("the Quick-scale paper set is too slow under -race")
	}
	if len(paperGoldens) != len(Paper) {
		t.Errorf("%d golden entries for %d Paper experiments", len(paperGoldens), len(Paper))
	}
	for _, e := range Paper {
		t.Run(e.Name, func(t *testing.T) {
			tbl := e.Run(Quick())
			b, err := json.Marshal(tbl)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			got := hex.EncodeToString(sum[:])
			want, ok := paperGoldens[e.Name]
			if !ok || want == "" {
				t.Logf("paperGoldens[%q] = %q (unset; record this value)", e.Name, got)
				t.Fail()
				return
			}
			if got != want {
				t.Errorf("quick-scale table diverged from its golden\n got %s\nwant %s\n%s", got, want, tbl)
			}
		})
	}
}

// TestReproLedgerConsistent reads the committed REPRO.json, runs no
// simulation, and checks that it holds exactly the Paper experiments,
// every claim ID DESIGN.md §3 indexes, and only verdicts that verdict
// derives from each claim's own paper and measured ranges.
func TestReproLedgerConsistent(t *testing.T) {
	ledger := readLedger(t)
	if len(ledger) != len(Paper) {
		t.Errorf("REPRO.json has %d tables, want %d (the Paper list)", len(ledger), len(Paper))
	}
	claims := make(map[string]Claim)
	for i, e := range ledger {
		if i < len(Paper) && e.Experiment != Paper[i].Name {
			t.Errorf("REPRO.json table %d is %q, want %q", i, e.Experiment, Paper[i].Name)
		}
		for _, c := range e.Claims {
			if !strings.HasPrefix(c.ID, e.Experiment+".") {
				t.Errorf("claim %q filed under %q", c.ID, e.Experiment)
			}
			if _, dup := claims[c.ID]; dup {
				t.Errorf("claim %q appears twice", c.ID)
			}
			claims[c.ID] = c
			if c.Measured[0] > c.Measured[1] || c.Paper[0] > c.Paper[1] || math.IsInf(c.Measured[1], 0) {
				t.Errorf("claim %q: malformed ranges paper %v measured %v", c.ID, c.Paper, c.Measured)
			}
			if want := verdict(c.Paper, c.Measured); c.Verdict != want {
				t.Errorf("claim %q: verdict %q, but paper %v against measured %v gives %q",
					c.ID, c.Verdict, c.Paper, c.Measured, want)
			}
		}
	}
	for _, id := range designClaimIDs(t) {
		if _, ok := claims[id]; !ok {
			t.Errorf("DESIGN.md §3 indexes claim %q, which REPRO.json lacks", id)
		}
		delete(claims, id)
	}
	for id := range claims {
		t.Errorf("REPRO.json claim %q is missing from DESIGN.md §3's index", id)
	}
}

// readLedger decodes the committed REPRO.json.
func readLedger(t *testing.T) []Entry {
	t.Helper()
	b, err := os.ReadFile("../../REPRO.json")
	if err != nil {
		t.Fatal(err)
	}
	var ledger []Entry
	if err := json.Unmarshal(b, &ledger); err != nil {
		t.Fatal(err)
	}
	return ledger
}

// TestExperimentsDocRendersLedger reads the committed REPRO.json and
// EXPERIMENTS.md, runs no simulation, and checks that the block between
// the doc's ledger markers is Render of the ledger byte for byte, and
// that the prose around it quotes none of the ledger's measured numbers
// (a decimal or a duration that is a cell or a claim's measured bound).
func TestExperimentsDocRendersLedger(t *testing.T) {
	b, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	const begin, end = "<!-- ledger:begin -->\n", "<!-- ledger:end -->"
	head, rest, ok := strings.Cut(string(b), begin)
	block, tail, ok2 := strings.Cut(rest, end)
	if !ok || !ok2 {
		t.Fatalf("EXPERIMENTS.md lacks the %q … %q markers", strings.TrimSpace(begin), end)
	}
	ledger := readLedger(t)
	if want := Render(ledger); block != want {
		got, exp := strings.Split(block, "\n"), strings.Split(want, "\n")
		i := 0
		for i < len(got) && i < len(exp) && got[i] == exp[i] {
			i++
		}
		t.Errorf("EXPERIMENTS.md's ledger block is not the render of REPRO.json: run `make repro`.\n"+
			"block line %d\n got %q\nwant %q", i+1, at(got, i), at(exp, i))
	}
	measured := make(map[string]bool)
	for _, e := range ledger {
		for _, row := range e.Rows {
			for _, cell := range row {
				measured[cell] = true
			}
		}
		for _, c := range e.Claims {
			measured[f2(c.Measured[0])], measured[f2(c.Measured[1])] = true, true
		}
	}
	number := regexp.MustCompile(`\d+\.\d+%?|\d+h\d+m[\d.]+s`)
	for _, n := range number.FindAllString(head+tail, -1) {
		if measured[n] {
			t.Errorf("EXPERIMENTS.md quotes the ledger's %s outside the ledger block; cite the claim ID instead", n)
		}
	}
}

func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end>"
}

// designClaimIDs returns the claim IDs in the last column of DESIGN.md
// §3's experiment index.
func designClaimIDs(t *testing.T) []string {
	t.Helper()
	f, err := os.Open("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	id := regexp.MustCompile("`([a-z0-9]+\\.[a-z0-9.]+)`")
	var ids []string
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "## ") {
			in = strings.HasPrefix(line, "## 3.")
			continue
		}
		if !in || !strings.HasPrefix(line, "| ") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "| "), " | ")
		for _, m := range id.FindAllStringSubmatch(cells[len(cells)-1], -1) {
			ids = append(ids, m[1])
		}
	}
	if len(ids) == 0 {
		t.Fatal("DESIGN.md §3 indexes no claim IDs")
	}
	return ids
}

func TestRangeJSONCarriesOpenBound(t *testing.T) {
	for _, r := range []Range{wins, about(2), {0.5, 0.5}} {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var back Range
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != r {
			t.Errorf("%v → %s → %v", r, b, back)
		}
	}
	if b, _ := json.Marshal(wins); string(b) != "[1,null]" {
		t.Errorf("open range encodes as %s, want [1,null]", b)
	}
}
