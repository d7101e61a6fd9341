package sched

import (
	"fmt"

	"muri/internal/profile"
)

// policies is the one name → constructor table: murisched's -policy,
// murisim's single run and the prediction experiment all resolve names
// here. Duration beliefs reach every policy through the engine, which
// rewrites each candidate's profile from its estimator; only
// gittins-pred reads est, the online predictor's service history.
var policies = []struct {
	name string
	new  func(est *profile.Online) Policy
}{
	{"fifo", func(*profile.Online) Policy { return FIFO() }},
	{"srtf", func(*profile.Online) Policy { return SRTF() }},
	{"srsf", func(*profile.Online) Policy { return SRSF() }},
	{"tiresias", func(*profile.Online) Policy { return Tiresias() }},
	{"themis", func(*profile.Online) Policy { return Themis() }},
	{"antman", func(*profile.Online) Policy { return AntMan{} }},
	{"muri-s", func(*profile.Online) Policy { return NewMuriS() }},
	{"muri-l", func(*profile.Online) Policy { return NewMuriL() }},
	{"muri-l-scale", func(*profile.Online) Policy { return NewMuriLScale(4) }},
	{"gittins-pred", func(est *profile.Online) Policy { return NewGittinsFromEstimator(est) }},
}

// Names lists the policies ByName resolves, in table order.
func Names() []string {
	out := make([]string, len(policies))
	for i, p := range policies {
		out[i] = p.name
	}
	return out
}

// ByName constructs the named policy; gittins-pred reads est.
// muri-l-scale shards its buckets four ways (set Grouping.Shards on the
// returned *Muri to change it).
func ByName(name string, est *profile.Online) (Policy, error) {
	for _, p := range policies {
		if p.name == name {
			return p.new(est), nil
		}
	}
	return nil, fmt.Errorf("unknown policy %q", name)
}
