package mapping

import "resparc/internal/energy"

// LayerPlan is the compiled static structure of one mapped layer: everything
// about the layer's accounting that depends only on the mapping, laid out so
// a timestep's cost scales with its spike count instead of with every MCA's
// input list. core's accountant and the mapper's cost model both replay
// spike rasters through it.
type LayerPlan struct {
	// InStart/InMCAs scatter an input bit to the MCAs whose input lists
	// contain it (see Targets), in compressed-row form.
	InStart, InMCAs []int32
	// Runs are the contiguous same-mPE MCA runs in allocation order — the
	// unit packet delivery is charged per.
	Runs []MPERun
	// Words concatenates the runs' deduped source-word lists, each in
	// first-encounter order.
	Words []int32
	// MCAs holds the per-MCA activation constants, in allocation order.
	MCAs []MCAPlan
	// NWords is the number of packet words of the layer's input vector.
	NWords int
}

// Targets returns the MCAs input bit i drives, in allocation order and with
// multiplicity: an input wired to k rows of one MCA appears k times, once
// per driven row.
func (pl *LayerPlan) Targets(i int) []int32 { return pl.InMCAs[pl.InStart[i]:pl.InStart[i+1]] }

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
}

// Plan compiles the layer for crossbar dimension size, packet width width
// (bits) and energy parameters p. Runs follow the MCAs' current MPE fields,
// so a mapping rewritten in place (RemapFaulty) must be re-planned.
func (lm *LayerMapping) Plan(size, width int, p energy.Params) LayerPlan {
	insz := lm.Layer.InSize()
	pl := LayerPlan{
		InStart: make([]int32, insz+1),
		MCAs:    make([]MCAPlan, len(lm.MCAs)),
		NWords:  (insz + width - 1) / width,
	}
	for ai := range lm.MCAs {
		for _, in := range lm.MCAs[ai].Inputs {
			pl.InStart[in+1]++
		}
	}
	for i := 0; i < insz; i++ {
		pl.InStart[i+1] += pl.InStart[i]
	}
	pl.InMCAs = make([]int32, pl.InStart[insz])
	next := append([]int32(nil), pl.InStart[:insz]...)
	owner := make([]int, lm.Groups)
	for i := range owner {
		owner[i] = -1
	}
	for ai := range lm.MCAs {
		if g := lm.MCAs[ai].Group; owner[g] < 0 {
			owner[g] = lm.MCAs[ai].MPE
		}
	}
	curMPE := -1
	mcaLo, wordLo := int32(0), int32(0)
	seen := map[int]bool{}
	for ai := range lm.MCAs {
		mca := &lm.MCAs[ai]
		if mca.MPE != curMPE {
			if ai > 0 {
				pl.Runs = append(pl.Runs, MPERun{mcaLo, int32(ai), wordLo, int32(len(pl.Words))})
				mcaLo, wordLo = int32(ai), int32(len(pl.Words))
				seen = map[int]bool{}
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
		pl.MCAs[ai] = MCAPlan{
			FactorXbar: usedPerRow*p.XbarCellActive + idlePerRow*p.XbarCellActive*p.XbarIdleFrac,
			IntegrateE: float64(len(mca.Outputs)) * p.NeuronIntegrate,
			Outs:       int32(len(mca.Outputs)),
			Group:      int32(mca.Group),
			Ext:        mca.MPE != owner[mca.Group],
		}
		lastWord := -1
		for _, in := range mca.Inputs {
			pl.InMCAs[next[in]] = int32(ai)
			next[in]++
			word := int(in) / width
			if word != lastWord {
				lastWord = word
				if !seen[word] {
					seen[word] = true
					pl.Words = append(pl.Words, int32(word))
				}
			}
		}
	}
	if len(lm.MCAs) > 0 {
		pl.Runs = append(pl.Runs, MPERun{mcaLo, int32(len(lm.MCAs)), wordLo, int32(len(pl.Words))})
	}
	return pl
}
