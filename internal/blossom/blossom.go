// Package blossom implements maximum-weight matching in general graphs
// using Edmonds's blossom algorithm in O(V³) time.
//
// Muri converts job grouping into maximum weighted matching: vertices are
// jobs (or merged job groups), edge weights are interleaving efficiencies,
// and the matching with the highest total weight is the best grouping plan
// (paper §4.1, Figure 5). This implementation follows the well-known
// primal-dual formulation popularized by Galil ("Efficient algorithms for
// finding maximum matching in graphs", 1986) and van Rantwijk's reference
// implementation: it maintains dual variables for vertices and blossoms and
// alternates between augmenting the matching and adjusting duals.
package blossom

// Edge is a weighted undirected edge between vertices I and J.
type Edge struct {
	I, J   int
	Weight float64
}

// MaxWeightMatching computes a matching of maximum total weight on the
// graph with n vertices (numbered 0..n-1) and the given edges. It returns
// mate, where mate[v] is the vertex matched to v, or -1 if v is single.
//
// If maxCardinality is true, the matching is restricted to maximum
// cardinality matchings (only then maximized by weight). Muri uses
// maxCardinality=false: edge weights (efficiencies) are positive, so a
// maximum weight matching pairs every job that has any beneficial partner.
//
// Self-loops are rejected by panic; duplicate edges are allowed (only one
// can be used). Negative weights are allowed and simply never selected
// unless maxCardinality forces them.
//
// This one-shot form allocates fresh state per call. Hot paths that match
// repeatedly should use MatchPooledInto (or a long-lived Matcher), which
// reuses state slices across calls and returns bit-identical matchings.
func MaxWeightMatching(n int, edges []Edge, maxCardinality bool) []int {
	var m Matcher
	m.Reset(n, edges)
	return m.Solve(maxCardinality)
}

// Matcher carries the full algorithm state. Vertex indices are 0..n-1;
// blossom indices are 0..2n-1 (the first n are trivial single-vertex
// blossoms).
//
// The zero value is ready for use. Reset prepares the matcher for a graph
// and Solve computes the matching; a Matcher may be Reset and solved any
// number of times, reusing its state slices, and every solve is
// bit-identical to a fresh MaxWeightMatching call on the same input. A
// Matcher is not safe for concurrent use.
type Matcher struct {
	n     int
	edges []Edge

	// endpoint[p] is the vertex at endpoint p; edge k has endpoints 2k
	// (vertex edges[k].I) and 2k+1 (vertex edges[k].J).
	endpoint []int
	// neighbend[v] lists the remote endpoints of edges incident to v.
	neighbend [][]int

	// mate[v] is the remote endpoint of v's matched edge, or -1.
	mate []int
	// label[b] ∈ {0 free, 1 S, 2 T} for top-level blossom b.
	label []int
	// labelend[b] is the endpoint through which b obtained its label.
	labelend []int
	// inblossom[v] is the top-level blossom containing vertex v.
	inblossom []int
	// blossomparent[b] is the immediately enclosing blossom, or -1.
	blossomparent []int
	// blossomchilds[b] lists the sub-blossoms of b in cyclic order.
	blossomchilds [][]int
	// blossombase[b] is the base vertex of blossom b.
	blossombase []int
	// blossomendps[b] lists the endpoints connecting consecutive children.
	blossomendps [][]int
	// bestedge[b] is the edge index of the least-slack edge from b to an
	// S-blossom, or -1.
	bestedge []int
	// blossombestedges[b] lists least-slack edges to other S-blossoms.
	blossombestedges [][]int
	// unusedblossoms is the free list of blossom indices ≥ n.
	unusedblossoms []int
	// dualvar holds vertex duals (0..n-1) and blossom duals (n..2n-1).
	dualvar []float64
	// allowedge[k] marks edge k as having zero slack (usable).
	allowedge []bool
	queue     []int

	// Scratch, so a warm solve allocates nothing but its result. leaves
	// and path are transient (never live across a call that refills
	// them); bestedgeto is all -1 between addBlossom calls; bestbuf[b]
	// keeps the backing array behind blossombestedges[b], which must read
	// nil when empty (blossomchilds and blossomendps are never tested for
	// nil, so they keep their own backing arrays in place).
	leaves     []int
	path       []int
	bestedgeto []int
	bestbuf    [][]int
}

// Reset prepares the matcher for the graph with n vertices and the given
// edges, reusing state-slice capacity left over from earlier solves. The
// edges slice is retained (read-only) until the next Reset; it is never
// mutated. The resulting state is identical to a freshly constructed
// matcher's.
func (m *Matcher) Reset(n int, edges []Edge) {
	m.n = n
	m.edges = edges
	nedge := len(edges)
	maxWeight := 0.0
	for _, e := range edges {
		if e.I == e.J {
			panic("blossom: self-loop edge")
		}
		if e.I < 0 || e.J < 0 || e.I >= n || e.J >= n {
			panic("blossom: edge endpoint out of range")
		}
		if e.Weight > maxWeight {
			maxWeight = e.Weight
		}
	}
	m.endpoint = resizeInts(m.endpoint, 2*nedge, 0)
	for k, e := range edges {
		m.endpoint[2*k] = e.I
		m.endpoint[2*k+1] = e.J
	}
	m.neighbend = resizeLists(m.neighbend, n)
	for k, e := range edges {
		m.neighbend[e.I] = append(m.neighbend[e.I], 2*k+1)
		m.neighbend[e.J] = append(m.neighbend[e.J], 2*k)
	}
	m.mate = resizeInts(m.mate, n, -1)
	m.label = resizeInts(m.label, 2*n, 0)
	m.labelend = resizeInts(m.labelend, 2*n, -1)
	m.inblossom = resizeInts(m.inblossom, n, 0)
	for v := range m.inblossom {
		m.inblossom[v] = v
	}
	m.blossomparent = resizeInts(m.blossomparent, 2*n, -1)
	m.blossomchilds = resizeLists(m.blossomchilds, 2*n)
	m.blossombase = resizeInts(m.blossombase, 2*n, -1)
	for v := 0; v < n; v++ {
		m.blossombase[v] = v
	}
	m.blossomendps = resizeLists(m.blossomendps, 2*n)
	m.bestedge = resizeInts(m.bestedge, 2*n, -1)
	m.blossombestedges = clearLists(m.blossombestedges, 2*n)
	m.bestbuf = resizeLists(m.bestbuf, 2*n)
	m.bestedgeto = resizeInts(m.bestedgeto, 2*n, -1)
	m.unusedblossoms = m.unusedblossoms[:0]
	for b := n; b < 2*n; b++ {
		m.unusedblossoms = append(m.unusedblossoms, b)
	}
	if cap(m.dualvar) < 2*n {
		m.dualvar = make([]float64, 2*n)
	} else {
		m.dualvar = m.dualvar[:2*n]
	}
	for v := 0; v < n; v++ {
		m.dualvar[v] = maxWeight
	}
	for b := n; b < 2*n; b++ {
		m.dualvar[b] = 0
	}
	if cap(m.allowedge) < nedge {
		m.allowedge = make([]bool, nedge)
	} else {
		m.allowedge = m.allowedge[:nedge]
		for k := range m.allowedge {
			m.allowedge[k] = false
		}
	}
	m.queue = m.queue[:0]
}

// resizeInts returns s resized to length n with every element set to v,
// reusing capacity when possible.
func resizeInts(s []int, n, v int) []int {
	if cap(s) < n {
		s = make([]int, n)
	} else {
		s = s[:n]
	}
	for i := range s {
		s[i] = v
	}
	return s
}

// resizeLists returns s resized to n entries, each truncated to length
// zero but keeping its backing array for append reuse.
func resizeLists(s [][]int, n int) [][]int {
	if cap(s) < n {
		grown := make([][]int, n)
		copy(grown, s[:cap(s)])
		s = grown
	} else {
		s = s[:n]
	}
	for i := range s {
		s[i] = s[i][:0]
	}
	return s
}

// clearLists returns s resized to n entries, each set to nil — addBlossom
// distinguishes a nil blossombestedges list from an empty one, so that
// table must match fresh construction exactly.
func clearLists(s [][]int, n int) [][]int {
	if cap(s) < n {
		return make([][]int, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = nil
	}
	return s
}

// slack returns the slack of edge k: zero slack means the edge is tight
// and can join the alternating forest.
func (m *Matcher) slack(k int) float64 {
	e := m.edges[k]
	return m.dualvar[e.I] + m.dualvar[e.J] - 2*e.Weight
}

// blossomLeaves appends all vertices inside blossom b to out.
func (m *Matcher) blossomLeaves(b int, out *[]int) {
	if b < m.n {
		*out = append(*out, b)
		return
	}
	for _, t := range m.blossomchilds[b] {
		m.blossomLeaves(t, out)
	}
}

// assignLabel labels the top-level blossom containing vertex w with label t
// (1=S, 2=T), reached through endpoint p.
func (m *Matcher) assignLabel(w, t, p int) {
	b := m.inblossom[w]
	if m.label[w] != 0 || m.label[b] != 0 {
		panic("blossom: assignLabel to labeled vertex")
	}
	m.label[w] = t
	m.label[b] = t
	m.labelend[w] = p
	m.labelend[b] = p
	m.bestedge[w] = -1
	m.bestedge[b] = -1
	if t == 1 {
		// b became an S-blossom: add its vertices to the scan queue.
		m.blossomLeaves(b, &m.queue)
	} else {
		// b became a T-blossom: label its mate's blossom S.
		base := m.blossombase[b]
		if m.mate[base] < 0 {
			panic("blossom: T-blossom base is single")
		}
		m.assignLabel(m.endpoint[m.mate[base]], 1, m.mate[base]^1)
	}
}

// scanBlossom traces back from vertices v and w to discover either a new
// blossom (returns its base) or an augmenting path (returns -1).
func (m *Matcher) scanBlossom(v, w int) int {
	path := m.path[:0]
	base := -1
	for v != -1 || w != -1 {
		b := m.inblossom[v]
		if m.label[b]&4 != 0 {
			base = m.blossombase[b]
			break
		}
		if m.label[b] != 1 {
			panic("blossom: scan reached non-S blossom")
		}
		path = append(path, b)
		m.label[b] = 5
		if m.labelend[b] == -1 {
			// b's base is single; stop tracing this side.
			v = -1
		} else {
			v = m.endpoint[m.labelend[b]]
			b = m.inblossom[v]
			if m.label[b] != 2 {
				panic("blossom: expected T-blossom on trace")
			}
			v = m.endpoint[m.labelend[b]]
		}
		if w != -1 {
			v, w = w, v
		}
	}
	for _, b := range path {
		m.label[b] = 1
	}
	m.path = path
	return base
}

// addBlossom constructs a new blossom with base vertex `base`, through edge
// k, which connects a pair of S vertices.
func (m *Matcher) addBlossom(base, k int) {
	v, w := m.edges[k].I, m.edges[k].J
	bb := m.inblossom[base]
	bv := m.inblossom[v]
	bw := m.inblossom[w]
	b := m.unusedblossoms[len(m.unusedblossoms)-1]
	m.unusedblossoms = m.unusedblossoms[:len(m.unusedblossoms)-1]
	m.blossombase[b] = base
	m.blossomparent[b] = -1
	m.blossomparent[bb] = b
	path, endps := m.blossomchilds[b][:0], m.blossomendps[b][:0]
	// Trace from bv up to bb.
	for bv != bb {
		m.blossomparent[bv] = b
		path = append(path, bv)
		endps = append(endps, m.labelend[bv])
		if m.labelend[bv] == -1 {
			panic("blossom: open path while building blossom")
		}
		v = m.endpoint[m.labelend[bv]]
		bv = m.inblossom[v]
	}
	// Reverse and prepend the base.
	path = append(path, bb)
	reverse(path)
	reverse(endps)
	endps = append(endps, 2*k)
	// Trace from bw up to bb.
	for bw != bb {
		m.blossomparent[bw] = b
		path = append(path, bw)
		endps = append(endps, m.labelend[bw]^1)
		if m.labelend[bw] == -1 {
			panic("blossom: open path while building blossom")
		}
		w = m.endpoint[m.labelend[bw]]
		bw = m.inblossom[w]
	}
	m.blossomchilds[b] = path
	m.blossomendps[b] = endps
	m.label[b] = 1
	m.labelend[b] = m.labelend[bb]
	m.dualvar[b] = 0
	m.leaves = m.leaves[:0]
	m.blossomLeaves(b, &m.leaves)
	for _, leaf := range m.leaves {
		if m.label[m.inblossom[leaf]] == 2 {
			// T-vertex inside the new S-blossom: queue it for scanning.
			m.queue = append(m.queue, leaf)
		}
		m.inblossom[leaf] = b
	}
	// Compute the blossom's best-edge lists: for every S-blossom reachable
	// from a child of b, the least-slack edge to it.
	for _, bv := range path {
		if m.blossombestedges[bv] == nil {
			m.leaves = m.leaves[:0]
			m.blossomLeaves(bv, &m.leaves)
			for _, vtx := range m.leaves {
				for _, p := range m.neighbend[vtx] {
					m.noteBestEdge(b, p/2)
				}
			}
		} else {
			for _, kk := range m.blossombestedges[bv] {
				m.noteBestEdge(b, kk)
			}
		}
		m.blossombestedges[bv] = nil
		m.bestedge[bv] = -1
	}
	best := m.bestbuf[b][:0]
	for bj, kk := range m.bestedgeto {
		if kk != -1 {
			best = append(best, kk)
			m.bestedgeto[bj] = -1
		}
	}
	m.bestbuf[b] = best
	if len(best) == 0 {
		best = nil
	}
	m.blossombestedges[b] = best
	m.bestedge[b] = -1
	for _, kk := range best {
		if m.bestedge[b] == -1 || m.slack(kk) < m.slack(m.bestedge[b]) {
			m.bestedge[b] = kk
		}
	}
}

// noteBestEdge records edge kk in bestedgeto if it leaves the new blossom
// b for another S-blossom with less slack than the edge recorded so far.
func (m *Matcher) noteBestEdge(b, kk int) {
	j := m.edges[kk].J
	if m.inblossom[j] == b {
		j = m.edges[kk].I
	}
	bj := m.inblossom[j]
	if bj != b && m.label[bj] == 1 &&
		(m.bestedgeto[bj] == -1 || m.slack(kk) < m.slack(m.bestedgeto[bj])) {
		m.bestedgeto[bj] = kk
	}
}

// expandBlossom undoes blossom b, either because its dual hit zero during
// dual adjustment or at the end of a stage (endstage).
func (m *Matcher) expandBlossom(b int, endstage bool) {
	for _, s := range m.blossomchilds[b] {
		m.blossomparent[s] = -1
		if s < m.n {
			m.inblossom[s] = s
		} else if endstage && m.dualvar[s] == 0 {
			// Recursively expand sub-blossoms with zero dual.
			m.expandBlossom(s, endstage)
		} else {
			m.leaves = m.leaves[:0]
			m.blossomLeaves(s, &m.leaves)
			for _, vtx := range m.leaves {
				m.inblossom[vtx] = s
			}
		}
	}
	if !endstage && m.label[b] == 2 {
		// b is a T-blossom mid-stage: relabel the path through it.
		entrychild := m.inblossom[m.endpoint[m.labelend[b]^1]]
		j := indexOf(m.blossomchilds[b], entrychild)
		var jstep, endptrick int
		if j&1 != 0 {
			j -= len(m.blossomchilds[b])
			jstep = 1
			endptrick = 0
		} else {
			jstep = -1
			endptrick = 1
		}
		p := m.labelend[b]
		for j != 0 {
			m.label[m.endpoint[p^1]] = 0
			idx := mod(j-endptrick, len(m.blossomendps[b]))
			m.label[m.endpoint[m.blossomendps[b][idx]^endptrick^1]] = 0
			m.assignLabel(m.endpoint[p^1], 2, p)
			m.allowedge[m.blossomendps[b][idx]/2] = true
			j += jstep
			idx = mod(j-endptrick, len(m.blossomendps[b]))
			p = m.blossomendps[b][idx] ^ endptrick
			m.allowedge[p/2] = true
			j += jstep
		}
		bv := m.blossomchilds[b][mod(j, len(m.blossomchilds[b]))]
		m.label[m.endpoint[p^1]] = 2
		m.label[bv] = 2
		m.labelend[m.endpoint[p^1]] = p
		m.labelend[bv] = p
		m.bestedge[bv] = -1
		j += jstep
		for m.blossomchilds[b][mod(j, len(m.blossomchilds[b]))] != entrychild {
			bv = m.blossomchilds[b][mod(j, len(m.blossomchilds[b]))]
			if m.label[bv] == 1 {
				j += jstep
				continue
			}
			m.leaves = m.leaves[:0]
			m.blossomLeaves(bv, &m.leaves)
			lvs := m.leaves
			v := lvs[len(lvs)-1]
			for _, vtx := range lvs {
				if m.label[vtx] != 0 {
					v = vtx
					break
				}
			}
			if m.label[v] != 0 {
				if m.label[v] != 2 {
					panic("blossom: expected T label inside expanded blossom")
				}
				if m.inblossom[v] != bv {
					panic("blossom: label owner mismatch")
				}
				m.label[v] = 0
				m.label[m.endpoint[m.mate[m.blossombase[bv]]]] = 0
				m.assignLabel(v, 2, m.labelend[v])
			}
			j += jstep
		}
	}
	m.label[b] = -1
	m.labelend[b] = -1
	m.blossomchilds[b] = m.blossomchilds[b][:0]
	m.blossomendps[b] = m.blossomendps[b][:0]
	m.blossombase[b] = -1
	m.blossombestedges[b] = nil
	m.bestedge[b] = -1
	m.unusedblossoms = append(m.unusedblossoms, b)
}

// augmentBlossom swaps matched and unmatched edges inside blossom b so that
// vertex v becomes the blossom's base.
func (m *Matcher) augmentBlossom(b, v int) {
	t := v
	for m.blossomparent[t] != b {
		t = m.blossomparent[t]
	}
	if t >= m.n {
		m.augmentBlossom(t, v)
	}
	i := indexOf(m.blossomchilds[b], t)
	j := i
	var jstep, endptrick int
	if i&1 != 0 {
		j -= len(m.blossomchilds[b])
		jstep = 1
		endptrick = 0
	} else {
		jstep = -1
		endptrick = 1
	}
	for j != 0 {
		j += jstep
		t = m.blossomchilds[b][mod(j, len(m.blossomchilds[b]))]
		idx := mod(j-endptrick, len(m.blossomendps[b]))
		p := m.blossomendps[b][idx] ^ endptrick
		if t >= m.n {
			m.augmentBlossom(t, m.endpoint[p])
		}
		j += jstep
		t = m.blossomchilds[b][mod(j, len(m.blossomchilds[b]))]
		if t >= m.n {
			m.augmentBlossom(t, m.endpoint[p^1])
		}
		m.mate[m.endpoint[p]] = p ^ 1
		m.mate[m.endpoint[p^1]] = p
	}
	// Rotate the child list so that t (containing v) becomes the base.
	rotate(m.blossomchilds[b], i)
	rotate(m.blossomendps[b], i)
	m.blossombase[b] = m.blossombase[m.blossomchilds[b][0]]
	if m.blossombase[b] != v {
		panic("blossom: augmented base mismatch")
	}
}

// augmentMatching augments the matching along the path through edge k.
func (m *Matcher) augmentMatching(k int) {
	for _, se := range [2][2]int{{m.edges[k].I, 2*k + 1}, {m.edges[k].J, 2 * k}} {
		s, p := se[0], se[1]
		for {
			bs := m.inblossom[s]
			if m.label[bs] != 1 {
				panic("blossom: augment through non-S blossom")
			}
			if m.labelend[bs] != m.mate[m.blossombase[bs]] {
				panic("blossom: inconsistent label endpoint")
			}
			if bs >= m.n {
				m.augmentBlossom(bs, s)
			}
			m.mate[s] = p
			if m.labelend[bs] == -1 {
				break // reached a single vertex: path complete
			}
			t := m.endpoint[m.labelend[bs]]
			bt := m.inblossom[t]
			if m.label[bt] != 2 {
				panic("blossom: expected T blossom on augmenting path")
			}
			s = m.endpoint[m.labelend[bt]]
			j := m.endpoint[m.labelend[bt]^1]
			if m.blossombase[bt] != t {
				panic("blossom: T blossom base mismatch")
			}
			if bt >= m.n {
				m.augmentBlossom(bt, j)
			}
			m.mate[j] = m.labelend[bt]
			p = m.labelend[bt] ^ 1
		}
	}
}

// Solve computes the matching on the graph prepared by the last Reset and
// returns mate as a freshly allocated slice (never aliased to matcher
// state, so callers may retain or mutate it). Solve consumes the prepared
// state; call Reset again before the next Solve.
func (m *Matcher) Solve(maxCardinality bool) []int {
	return m.SolveInto(nil, maxCardinality)
}

// SolveInto is Solve with mate written into dst's backing array when it
// has the capacity (a fresh slice otherwise), for callers that solve in a
// loop and read mate before the next solve.
func (m *Matcher) SolveInto(dst []int, maxCardinality bool) []int {
	if len(m.edges) == 0 || m.n == 0 {
		return resizeInts(dst, m.n, -1)
	}
	for t := 0; t < m.n; t++ {
		// Each stage finds one augmenting path (or gives up).
		for i := range m.label {
			m.label[i] = 0
		}
		for i := range m.bestedge {
			m.bestedge[i] = -1
		}
		for b := m.n; b < 2*m.n; b++ {
			m.blossombestedges[b] = nil
		}
		for i := range m.allowedge {
			m.allowedge[i] = false
		}
		m.queue = m.queue[:0]
		for v := 0; v < m.n; v++ {
			if m.mate[v] == -1 && m.label[m.inblossom[v]] == 0 {
				m.assignLabel(v, 1, -1)
			}
		}
		augmented := false
		for {
			// Substage: scan S-vertices until augmentation or stuck.
			for len(m.queue) > 0 && !augmented {
				v := m.queue[len(m.queue)-1]
				m.queue = m.queue[:len(m.queue)-1]
				if m.label[m.inblossom[v]] != 1 {
					panic("blossom: queued vertex not in S blossom")
				}
			neighbors:
				for _, p := range m.neighbend[v] {
					k := p / 2
					w := m.endpoint[p]
					if m.inblossom[v] == m.inblossom[w] {
						continue // internal edge
					}
					if !m.allowedge[k] {
						kslack := m.slack(k)
						if kslack <= 0 {
							m.allowedge[k] = true
						}
					}
					if m.allowedge[k] {
						switch m.label[m.inblossom[w]] {
						case 0:
							m.assignLabel(w, 2, p^1)
						case 1:
							base := m.scanBlossom(v, w)
							if base >= 0 {
								m.addBlossom(base, k)
							} else {
								m.augmentMatching(k)
								augmented = true
								break neighbors
							}
						default:
							if m.label[w] == 0 {
								m.label[w] = 2
								m.labelend[w] = p ^ 1
							}
						}
					} else if m.label[m.inblossom[w]] == 1 {
						b := m.inblossom[v]
						kslack := m.slack(k)
						if m.bestedge[b] == -1 || kslack < m.slack(m.bestedge[b]) {
							m.bestedge[b] = k
						}
					} else if m.label[w] == 0 {
						kslack := m.slack(k)
						if m.bestedge[w] == -1 || kslack < m.slack(m.bestedge[w]) {
							m.bestedge[w] = k
						}
					}
				}
			}
			if augmented {
				break
			}
			// Compute the dual adjustment delta.
			deltatype := -1
			var delta float64
			var deltaedge, deltablossom int
			if !maxCardinality {
				deltatype = 1
				delta = maxf(0, minDual(m.dualvar[:m.n]))
			}
			for v := 0; v < m.n; v++ {
				if m.label[m.inblossom[v]] == 0 && m.bestedge[v] != -1 {
					d := m.slack(m.bestedge[v])
					if deltatype == -1 || d < delta {
						delta = d
						deltatype = 2
						deltaedge = m.bestedge[v]
					}
				}
			}
			for b := 0; b < 2*m.n; b++ {
				if m.blossomparent[b] == -1 && m.label[b] == 1 && m.bestedge[b] != -1 {
					kslack := m.slack(b2e(m.bestedge[b]))
					d := kslack / 2
					if deltatype == -1 || d < delta {
						delta = d
						deltatype = 3
						deltaedge = m.bestedge[b]
					}
				}
			}
			for b := m.n; b < 2*m.n; b++ {
				if m.blossombase[b] >= 0 && m.blossomparent[b] == -1 && m.label[b] == 2 {
					if deltatype == -1 || m.dualvar[b] < delta {
						delta = m.dualvar[b]
						deltatype = 4
						deltablossom = b
					}
				}
			}
			if deltatype == -1 {
				// No further progress possible (maxCardinality stuck case).
				deltatype = 1
				delta = maxf(0, minDual(m.dualvar[:m.n]))
			}
			// Apply delta to dual variables.
			for v := 0; v < m.n; v++ {
				switch m.label[m.inblossom[v]] {
				case 1:
					m.dualvar[v] -= delta
				case 2:
					m.dualvar[v] += delta
				}
			}
			for b := m.n; b < 2*m.n; b++ {
				if m.blossombase[b] >= 0 && m.blossomparent[b] == -1 {
					switch m.label[b] {
					case 1:
						m.dualvar[b] += delta
					case 2:
						m.dualvar[b] -= delta
					}
				}
			}
			// Act on the delta type.
			switch deltatype {
			case 1:
				// Optimum reached.
				goto endstage
			case 2:
				m.allowedge[deltaedge] = true
				i := m.edges[deltaedge].I
				if m.label[m.inblossom[i]] == 0 {
					i = m.edges[deltaedge].J
				}
				if m.label[m.inblossom[i]] != 1 {
					panic("blossom: delta-2 edge has no S endpoint")
				}
				m.queue = append(m.queue, i)
			case 3:
				m.allowedge[deltaedge] = true
				i := m.edges[deltaedge].I
				if m.label[m.inblossom[i]] != 1 {
					panic("blossom: delta-3 edge has no S endpoint")
				}
				m.queue = append(m.queue, i)
			case 4:
				m.expandBlossom(deltablossom, false)
			}
		}
	endstage:
		if !augmented {
			break
		}
		// End of a successful stage: expand all S-blossoms with zero dual.
		for b := m.n; b < 2*m.n; b++ {
			if m.blossomparent[b] == -1 && m.blossombase[b] >= 0 &&
				m.label[b] == 1 && m.dualvar[b] == 0 {
				m.expandBlossom(b, true)
			}
		}
	}
	// Transform mate from endpoints to vertices.
	out := resizeInts(dst, m.n, -1)
	for v := 0; v < m.n; v++ {
		if m.mate[v] >= 0 {
			out[v] = m.endpoint[m.mate[v]]
		}
	}
	for v := 0; v < m.n; v++ {
		if out[v] != -1 && out[out[v]] != v {
			panic("blossom: asymmetric matching")
		}
	}
	return out
}

// b2e exists for symmetry with the reference implementation where
// bestedge stores edge indices directly.
func b2e(k int) int { return k }

func minDual(d []float64) float64 {
	min := d[0]
	for _, v := range d[1:] {
		if v < min {
			min = v
		}
	}
	return min
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func indexOf(s []int, v int) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	panic("blossom: element not found")
}

func mod(a, n int) int {
	r := a % n
	if r < 0 {
		r += n
	}
	return r
}

// rotate moves s[i:] to the front of s, in place.
func rotate(s []int, i int) {
	reverse(s[:i])
	reverse(s[i:])
	reverse(s)
}

func reverse(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}
