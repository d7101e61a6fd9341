package workload

import (
	"testing"
	"testing/quick"
	"time"
)

func TestResourceString(t *testing.T) {
	cases := map[Resource]string{
		Storage:     "storage",
		CPU:         "cpu",
		GPU:         "gpu",
		Network:     "network",
		Resource(9): "resource(9)",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("Resource(%d).String() = %q, want %q", int(r), got, want)
		}
	}
}

func TestStageNames(t *testing.T) {
	cases := map[Resource]string{
		Storage:     "load data",
		CPU:         "preprocess",
		GPU:         "propagate",
		Network:     "synchronize",
		Resource(7): "stage(7)",
	}
	for r, want := range cases {
		if got := r.StageName(); got != want {
			t.Errorf("Resource(%d).StageName() = %q, want %q", int(r), got, want)
		}
	}
}

func TestStageTimesTotal(t *testing.T) {
	s := StageTimes{1 * time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond, 4 * time.Millisecond}
	if got, want := s.Total(), 10*time.Millisecond; got != want {
		t.Errorf("Total() = %v, want %v", got, want)
	}
	var zero StageTimes
	if zero.Total() != 0 {
		t.Errorf("zero.Total() = %v, want 0", zero.Total())
	}
}

func TestStageTimesBottleneck(t *testing.T) {
	cases := []struct {
		s    StageTimes
		want Resource
	}{
		{StageTimes{4, 1, 1, 1}, Storage},
		{StageTimes{1, 4, 1, 1}, CPU},
		{StageTimes{1, 1, 4, 1}, GPU},
		{StageTimes{1, 1, 1, 4}, Network},
		// Ties break toward the earliest stage.
		{StageTimes{2, 2, 2, 2}, Storage},
		{StageTimes{0, 3, 3, 1}, CPU},
	}
	for _, c := range cases {
		if got := c.s.Bottleneck(); got != c.want {
			t.Errorf("%v.Bottleneck() = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestStageTimesFractionsSumToOne(t *testing.T) {
	s := StageTimes{10, 20, 30, 40}
	f := s.Fractions()
	sum := 0.0
	for _, v := range f {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("fractions sum = %v, want 1", sum)
	}
	if f[Network] != 0.4 {
		t.Errorf("f[Network] = %v, want 0.4", f[Network])
	}
}

func TestStageTimesFractionsZero(t *testing.T) {
	var s StageTimes
	f := s.Fractions()
	for r, v := range f {
		if v != 0 {
			t.Errorf("f[%d] = %v, want 0 for zero profile", r, v)
		}
	}
}

func TestScale(t *testing.T) {
	s := StageTimes{10 * time.Millisecond, 20 * time.Millisecond, 0, 5 * time.Millisecond}
	got := s.Scale(2)
	want := StageTimes{20 * time.Millisecond, 40 * time.Millisecond, 0, 10 * time.Millisecond}
	if got != want {
		t.Errorf("Scale(2) = %v, want %v", got, want)
	}
}

func TestScaleProperty(t *testing.T) {
	// Scaling by a nonnegative factor scales the total by the same factor.
	f := func(a, b, c, d uint16, scale uint8) bool {
		s := StageTimes{
			time.Duration(a) * time.Microsecond,
			time.Duration(b) * time.Microsecond,
			time.Duration(c) * time.Microsecond,
			time.Duration(d) * time.Microsecond,
		}
		k := float64(scale % 8)
		scaled := s.Scale(k)
		want := time.Duration(float64(s.Total()) * k)
		diff := scaled.Total() - want
		if diff < 0 {
			diff = -diff
		}
		return diff <= 4 // rounding of each component
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZooBottlenecksMatchTable3(t *testing.T) {
	want := map[string]Resource{
		"resnet18":   Storage,
		"shufflenet": Storage,
		"vgg16":      Network,
		"vgg19":      Network,
		"bert":       GPU,
		"gpt2":       GPU,
		"a2c":        CPU,
		"dqn":        CPU,
	}
	zoo := Zoo()
	if len(zoo) != len(want) {
		t.Fatalf("Zoo() has %d models, want %d", len(zoo), len(want))
	}
	for _, m := range zoo {
		wb, ok := want[m.Name]
		if !ok {
			t.Errorf("unexpected model %q in zoo", m.Name)
			continue
		}
		if got := m.Bottleneck(); got != wb {
			t.Errorf("%s bottleneck = %v, want %v (Table 3)", m.Name, got, wb)
		}
	}
}

func TestZooTable1Percentages(t *testing.T) {
	// The four Table 1 exemplars should reproduce the published stage
	// percentages after renormalizing onto the four serial stages.
	type row struct {
		model string
		want  [NumResources]float64 // raw Table 1 percentages
	}
	rows := []row{
		{"shufflenet", [NumResources]float64{0.60, 0.18, 0.06, 0.02}},
		{"vgg19", [NumResources]float64{0.24, 0.04, 0.26, 0.41}},
		{"gpt2", [NumResources]float64{0.0006, 0.0003, 0.85, 0.28}},
		{"a2c", [NumResources]float64{0, 0.91, 0.03, 0.002}},
	}
	for _, r := range rows {
		m, err := ByName(r.model)
		if err != nil {
			t.Fatal(err)
		}
		var paperTotal float64
		for _, v := range r.want {
			paperTotal += v
		}
		got := m.Stages.Fractions()
		for res := Resource(0); res < NumResources; res++ {
			wantFrac := r.want[res] / paperTotal
			if diff := got[res] - wantFrac; diff > 0.02 || diff < -0.02 {
				t.Errorf("%s %v fraction = %.3f, want %.3f (Table 1)", r.model, res, got[res], wantFrac)
			}
		}
	}
}

func TestByName(t *testing.T) {
	m, err := ByName("gpt2")
	if err != nil {
		t.Fatal(err)
	}
	if m.Family != "nlp" || m.Dataset != "wikitext" {
		t.Errorf("gpt2 metadata = %q/%q, want nlp/wikitext", m.Family, m.Dataset)
	}
	if _, err := ByName("nosuchmodel"); err == nil {
		t.Error("ByName(nosuchmodel) = nil error, want error")
	}
}

func TestByBottleneckPartitionsZoo(t *testing.T) {
	total := 0
	for r := Resource(0); r < NumResources; r++ {
		ms := ByBottleneck(r)
		if len(ms) != 2 {
			t.Errorf("ByBottleneck(%v) returned %d models, want 2", r, len(ms))
		}
		total += len(ms)
	}
	if total != len(Zoo()) {
		t.Errorf("bottleneck partition covers %d models, want %d", total, len(Zoo()))
	}
}

func TestZooBatchSizesMatchTable3(t *testing.T) {
	want := map[string]int{
		"resnet18": 128, "shufflenet": 128, "vgg16": 16, "vgg19": 16,
		"bert": 4, "gpt2": 4, "a2c": 64, "dqn": 128,
	}
	for _, m := range Zoo() {
		if m.BatchSize != want[m.Name] {
			t.Errorf("%s batch size = %d, want %d", m.Name, m.BatchSize, want[m.Name])
		}
	}
}

// TestByNameServesOneTable: a lookup reads the table built once, so it
// allocates nothing, and a caller mutating what Zoo returned changes no
// later lookup.
func TestByNameServesOneTable(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() { _, _ = ByName("dqn") }); allocs != 0 {
		t.Fatalf("ByName allocates %.0f times per lookup", allocs)
	}
	before, err := ByName("vgg19")
	if err != nil {
		t.Fatal(err)
	}
	zoo := Zoo()
	for i := range zoo {
		zoo[i].Name, zoo[i].Stages = "mutated", StageTimes{}
	}
	if after, err := ByName("vgg19"); err != nil || after != before {
		t.Fatalf("mutating a Zoo() copy changed ByName: %+v, %v (was %+v)", after, err, before)
	}
	if fresh := Zoo(); fresh[2] != before {
		t.Fatalf("mutating a Zoo() copy changed the next copy: %+v", fresh[2])
	}
}
