package main

import (
	"entityres/er"
)

// Per-stage quality without enumerating comparisons. Enumerating the
// distinct pairs of unpurged token blocks does not finish at 100k records,
// so each stage is scored by walking the truth pairs against per-entity
// block membership: O(|truth| × blocks per entity).
//
//   - comparisons is the aggregate cardinality ||B||, every block's
//     comparisons summed with redundancy;
//   - PC = detected truth pairs / |truth|;
//   - PQ = detected truth pairs / ||B||;
//   - RR = 1 - ||B|| / (|KB0| · |KB1|).

// stageQuality is one stage's candidate-set quality against the truth.
type stageQuality struct {
	comparisons int64
	detected    int
	pc, pq, rr  float64
}

// membership lists, per description, the ascending indexes of the blocks
// that hold it.
type membership [][]int32

func blockMembership(n int, bs *er.Blocks) membership {
	m := make(membership, n)
	for i, b := range bs.All() {
		for _, id := range b.S0 {
			m[id] = append(m[id], int32(i))
		}
		for _, id := range b.S1 {
			m[id] = append(m[id], int32(i))
		}
	}
	return m
}

// share reports whether a and b co-occur in some block.
func (m membership) share(a, b er.ID) bool {
	x, y := m[a], m[b]
	for i, j := 0, 0; i < len(x) && j < len(y); {
		switch {
		case x[i] == y[j]:
			return true
		case x[i] < y[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// evalBlocks scores a block collection of c against the truth pairs.
func evalBlocks(c *er.Collection, bs *er.Blocks, truth []er.Pair) stageQuality {
	m := blockMembership(c.Len(), bs)
	q := stageQuality{comparisons: bs.TotalComparisons()}
	for _, p := range truth {
		if m.share(p.A, p.B) {
			q.detected++
		}
	}
	q.fill(c, len(truth))
	return q
}

// evalMatches scores a match set as the final stage: its pairs are the
// candidates, each counted once.
func evalMatches(c *er.Collection, ms *er.Matches, truth []er.Pair) stageQuality {
	q := stageQuality{comparisons: int64(ms.Len())}
	for _, p := range truth {
		if ms.Contains(p.A, p.B) {
			q.detected++
		}
	}
	q.fill(c, len(truth))
	return q
}

func (q *stageQuality) fill(c *er.Collection, truth int) {
	if truth > 0 {
		q.pc = float64(q.detected) / float64(truth)
	}
	if q.comparisons > 0 {
		q.pq = float64(q.detected) / float64(q.comparisons)
	}
	if total := c.TotalComparisons(); total > 0 {
		q.rr = 1 - float64(q.comparisons)/float64(total)
	}
}
