package mapping

import (
	"math/bits"
	"slices"

	"resparc/internal/bitvec"
	"resparc/internal/energy"
)

// LayerPlan is the compiled static structure of one mapped layer: everything
// about the layer's accounting that depends only on the mapping, laid out so
// counting a timestep's input costs one masked popcount per (row set, input
// word) instead of one scatter per (spike, driven MCA). core's accountant
// and the mapper's cost model both replay spike rasters through Count.
type LayerPlan struct {
	// A row set is one distinct MCA input list; MCAs with identical Inputs
	// (the column splits of a conv location, the dense tiles of one row
	// block) share it. Each of the NSets row sets is compiled to
	// (64-bit input word, mask) entries, and its spiking-row count is the
	// sum of popcount(word & mask) over them. An input listed k times in
	// one MCA drives k rows, so it sits in k entries for its word. Entries
	// are grouped by row set in ascending order.
	Entries []RowEntry
	NSets   int
	// Runs are the contiguous same-mPE MCA runs in allocation order — the
	// unit packet delivery is charged per.
	Runs []MPERun
	// Words concatenates the runs' deduped source packet-word lists, each
	// in first-encounter order.
	Words []int32
	// MCAs holds the per-MCA activation constants, in allocation order.
	MCAs []MCAPlan
	// Width is the packet width in bits; NWords is the number of packet
	// words of the layer's input vector (the last one may be partial).
	Width, NWords int
}

// RowEntry is one (input word, mask) entry of row set Set: the set's rows
// read the input bits Mask of 64-bit word Word.
type RowEntry struct {
	Mask      uint64
	Word, Set int32
}

// Count counts one timestep of the layer's input spike vector in (the
// layer's InSize bits): rows[s] receives row set s's spiking-row count and
// occ[w] whether packet word w carries a spike; it returns the number of
// occupied packet words. rows needs NSets entries and occ NWords.
func (pl *LayerPlan) Count(in *bitvec.Bits, rows []int32, occ []bool) int {
	words := in.Words()
	rows = rows[:pl.NSets]
	clear(rows)
	for _, e := range pl.Entries {
		rows[e.Set] += int32(bits.OnesCount64(words[e.Word] & e.Mask))
	}
	occWords := 0
	occ = occ[:pl.NWords]
	n, w := in.Len(), pl.Width
	for i := range occ {
		if w == 64 {
			occ[i] = words[i] != 0
		} else {
			occ[i] = in.LoadBits(i*w, min(w, n-i*w)) != 0
		}
		if occ[i] {
			occWords++
		}
	}
	return occWords
}

// MPERun is one run of same-mPE MCAs, MCAs[MCALo:MCAHi], with its source
// words Words[WordLo:WordHi].
type MPERun struct{ MCALo, MCAHi, WordLo, WordHi int32 }

// MCAPlan holds one MCA's per-activation constants.
type MCAPlan struct {
	// FactorXbar is the crossbar conduction energy per driven row: used
	// cells at programmed conductance, idle cells at the GMin pair (unless
	// the counterfactual column gating is on).
	FactorXbar float64
	// IntegrateE is the neuron integration energy of one activation.
	IntegrateE float64
	// Outs is the number of output columns; Group the output group.
	Outs, Group int32
	// Ext marks an MCA outside the mPE that owns its group's neurons (the
	// mPE of the group's first MCA), whose partial sums must travel.
	Ext bool
	// RowSet is the row set of the MCA's input list (see LayerPlan.Entries).
	RowSet int32
}

// Plan compiles the layer for crossbar dimension size, packet width width
// (bits) and energy parameters p. Runs follow the MCAs' current MPE fields,
// so a mapping rewritten in place (RemapFaulty) must be re-planned.
func (lm *LayerMapping) Plan(size, width int, p energy.Params) LayerPlan {
	insz := lm.Layer.InSize()
	pl := LayerPlan{
		MCAs:   make([]MCAPlan, len(lm.MCAs)),
		Width:  width,
		NWords: (insz + width - 1) / width,
	}
	owner := make([]int, lm.Groups)
	for i := range owner {
		owner[i] = -1
	}
	for ai := range lm.MCAs {
		if g := lm.MCAs[ai].Group; owner[g] < 0 {
			owner[g] = lm.MCAs[ai].MPE
		}
	}
	// setOf finds a row set by the hash of its input list, probing the
	// next key on a collision; setMCA is each set's first MCA.
	setOf := map[uint64]int32{}
	var setMCA []int
	var sorted []int32
	// seen[w] == run marks packet word w as listed for the current run.
	seen := make([]int32, pl.NWords)
	run := int32(1)
	curMPE := -1
	mcaLo, wordLo := int32(0), int32(0)
	for ai := range lm.MCAs {
		mca := &lm.MCAs[ai]
		if mca.MPE != curMPE {
			if ai > 0 {
				pl.Runs = append(pl.Runs, MPERun{mcaLo, int32(ai), wordLo, int32(len(pl.Words))})
				mcaLo, wordLo = int32(ai), int32(len(pl.Words))
				run++
			}
			curMPE = mca.MPE
		}
		usedPerRow := 0.0
		if len(mca.Inputs) > 0 {
			usedPerRow = float64(mca.Taps) / float64(len(mca.Inputs))
		}
		idlePerRow := float64(size) - usedPerRow
		if p.GateIdleColumns {
			idlePerRow = 0
		}
		h := hashInputs(mca.Inputs)
		set, ok := setOf[h]
		for ok && !slices.Equal(lm.MCAs[setMCA[set]].Inputs, mca.Inputs) {
			h++
			set, ok = setOf[h]
		}
		if !ok {
			set = int32(pl.NSets)
			setOf[h] = set
			setMCA = append(setMCA, ai)
			sorted = pl.addSet(mca.Inputs, sorted)
		}
		pl.MCAs[ai] = MCAPlan{
			FactorXbar: usedPerRow*p.XbarCellActive + idlePerRow*p.XbarCellActive*p.XbarIdleFrac,
			IntegrateE: float64(len(mca.Outputs)) * p.NeuronIntegrate,
			Outs:       int32(len(mca.Outputs)),
			Group:      int32(mca.Group),
			Ext:        mca.MPE != owner[mca.Group],
			RowSet:     set,
		}
		wlo, whi := int32(0), int32(0) // input range of the last input's word
		for _, in := range mca.Inputs {
			if in >= wlo && in < whi {
				continue
			}
			word := in / int32(width)
			wlo, whi = word*int32(width), (word+1)*int32(width)
			if seen[word] != run {
				seen[word] = run
				pl.Words = append(pl.Words, word)
			}
		}
	}
	if len(lm.MCAs) > 0 {
		pl.Runs = append(pl.Runs, MPERun{mcaLo, int32(len(lm.MCAs)), wordLo, int32(len(pl.Words))})
	}
	return pl
}

// hashInputs is the FNV-1a hash of an input list.
func hashInputs(ins []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, in := range ins {
		h = (h ^ uint64(uint32(in))) * 1099511628211
	}
	return h
}

// addSet compiles one input list into a new row set's (word, mask) entries,
// using buf as scratch to sort an unsorted list, and returns buf. Within a
// word the j-th copy of a repeated input goes into the word's j-th mask.
func (pl *LayerPlan) addSet(inputs, buf []int32) []int32 {
	set := int32(pl.NSets)
	if !slices.IsSorted(inputs) {
		buf = append(buf[:0], inputs...)
		slices.Sort(buf)
		inputs = buf
	}
	first, prev, dup := 0, int32(-1), 0
	for i, in := range inputs {
		wd := in >> 6
		if i == 0 || wd != inputs[i-1]>>6 {
			first = len(pl.Entries)
		}
		if in == prev {
			dup++
		} else {
			prev, dup = in, 0
		}
		if first+dup == len(pl.Entries) {
			pl.Entries = append(pl.Entries, RowEntry{Word: wd, Set: set})
		}
		pl.Entries[first+dup].Mask |= 1 << uint(in&63)
	}
	pl.NSets++
	return buf
}
