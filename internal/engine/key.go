package engine

import (
	"slices"
	"strconv"

	"muri/internal/job"
	"muri/internal/sched"
)

// UnitKey canonically identifies a schedulable unit by its sharing mode
// and member set: "mode:id,id,...", with member IDs sorted ascending so
// the key is invariant to member order. The simulator and the daemon both
// key their placement memory and desired-state diffing on it — a unit
// whose key is unchanged across scheduling rounds is the same logical
// unit (same jobs, same sharing discipline) and keeps running without a
// restart; any change in composition or mode produces a new key and
// forces a relaunch.
func UnitKey(u sched.Unit) string { return unitKey(u, nil) }

// unitKey is UnitKey returning prev[first member] when that is the key,
// so a unit that continues under its launch key reuses its string and
// only a new composition allocates one.
func unitKey(u sched.Unit, prev map[job.ID]string) string {
	// Stack buffers: groups hold at most a handful of members, and a key
	// is a short string, so the only allocation is the returned string.
	var idBuf [8]int64
	ids := idBuf[:0]
	for _, j := range u.Jobs {
		ids = append(ids, int64(j.ID))
	}
	if len(ids) > 1 {
		slices.Sort(ids)
	}
	var keyBuf [64]byte
	buf := append(keyBuf[:0], u.Mode.String()...)
	buf = append(buf, ':')
	for i, id := range ids {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, id, 10)
	}
	if len(u.Jobs) > 0 {
		if key := prev[u.Jobs[0].ID]; string(buf) == key {
			return key
		}
	}
	return string(buf)
}
