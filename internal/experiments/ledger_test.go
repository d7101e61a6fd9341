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
	"table5":     "81504d22f066498e8e1021309268c88073a976e5c7950c2c19c9b14d457db5c2",
	"figure8":    "8692ee7af6ef6997708a3271874960e7666f49ac26397abb293bc018b86f3ea3",
	"figure9":    "a0a18f86a454e79ee7769e66ba5db27eea275b43a50437e91d811cfa13e70ba7",
	"figure10":   "0d7284e6b9820763cc97bb5b619e2f401472654fe07c4e66ea9e5e7024a6da32",
	"figure11":   "b3a5c536f1d80f1f58449780ed4170dbf6a03d3de8c3d21be0c52fec40c8d253",
	"figure12":   "4bbacff03d0e12df179c081fec2074382709b19e2551dd0bb1f8aec0ecbc4b99",
	"figure13":   "1b22bec2432829d254c84cc93d83bedfe88f0d34a204db3ccf9068d6a5240964",
	"figure14":   "fa36f7a5916ad71a8a5f293d664b798dbab64333f08df29452356ed411185ba8",
	"faults":     "4d36678d3a328b836f9b2c2ac146960c5336dd3fab6e6a5de59ebc3266403fa7",
	"prediction": "f13826fd81a479c5f3071cf5a264900f7ed93a34475b8203bfe61958d571d8cc",
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
	b, err := os.ReadFile("../../REPRO.json")
	if err != nil {
		t.Fatal(err)
	}
	var ledger []Entry
	if err := json.Unmarshal(b, &ledger); err != nil {
		t.Fatal(err)
	}
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
