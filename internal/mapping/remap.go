package mapping

import (
	"fmt"
	"sort"

	"resparc/internal/fault"
)

// This file is the fault-aware mapping pass: given per-allocation health
// (from program-verify reports or a fault campaign survey), it remaps
// allocations sitting on unrepairable crossbars to spare mPEs, and marks
// the mapping degraded — with an estimated accuracy loss — for whatever it
// cannot move. The ILP-remapping literature (Pohl et al.) treats routing
// around heterogeneous/degraded crossbars as a first-class compiler
// concern; this is the greedy, screened-spares version of that idea.
//
// Why screening matters: at the Ag-Si default defect rate (0.002) a 64x64
// crossbar carries ~16 expected stuck devices, so EVERY array — spares
// included — has faults. Unscreened spares would trade one set of faults
// for another. Real deployments bin arrays at configuration time (the
// program-verify loop is exactly the screen), so RemapConfig.Screen lets
// the caller accept only spare slots whose fault map is clean over the
// allocation's used region.

// MCAHealth is the observed health of one mapped allocation.
type MCAHealth struct {
	// Layer/Index locate the allocation: Layers[Layer].MCAs[Index].
	Layer, Index int
	// BadTaps is the number of unrepairable used cross-points (from the
	// verify report, after discounting benign stuck cells).
	BadTaps int
	// Dead marks a whole-slot or whole-mPE kill: the allocation computes
	// nothing at all.
	Dead bool
}

// RemapConfig tunes the fault-aware pass.
type RemapConfig struct {
	// SpareMPEs is the size of the spare pool appended after the mapping's
	// last used mPE (each spare mPE holds MCAsPerMPE slots).
	SpareMPEs int
	// MaxBadTaps: allocations with at most this many bad used taps are
	// tolerated in place (no move). Dead allocations are always moved.
	MaxBadTaps int
	// Screen reports whether a spare slot is known-good for the allocation
	// (the configuration-time program-verify screen). nil accepts every
	// spare unconditionally.
	Screen func(id fault.SlotID, a *MCA) bool
}

// Move records one allocation relocated to a spare slot.
type Move struct {
	Layer, Index int
	From, To     fault.SlotID
}

// RemapReport is the outcome of one fault-aware pass.
type RemapReport struct {
	// Faulty is the number of allocations over the tolerance (or dead).
	Faulty int
	// Moves lists the relocations performed.
	Moves []Move
	// SparesUsed counts spare slots consumed (including previous passes).
	SparesUsed int
	// Degraded lists the allocations that could not be moved (spare pool
	// exhausted or screened out): the mapping still runs, wrong.
	Degraded []MCAHealth
	// ResidualBadTaps sums BadTaps over Degraded (dead allocations count
	// all their taps).
	ResidualBadTaps int
	// EstAccuracyLoss estimates the classification-accuracy cost of the
	// residual damage: the fraction of programmed synapses that are wrong,
	// saturated at 1. A crude first-order proxy — the faults sweep
	// (experiments) measures the real number.
	EstAccuracyLoss float64
}

// Degraded reports whether residual damage remains after the pass.
func (r *RemapReport) IsDegraded() bool { return len(r.Degraded) > 0 }

func (r *RemapReport) String() string {
	return fmt.Sprintf("remap: %d faulty, %d moved, %d spares used, %d degraded (est. accuracy loss %.1f%%)",
		r.Faulty, len(r.Moves), r.SparesUsed, len(r.Degraded), 100*r.EstAccuracyLoss)
}

// RemapFaulty relocates unhealthy allocations to spare mPEs. Spares sit
// after the mapping's original last mPE ([SpareFirst, SpareFirst+Spares));
// each faulty allocation takes the first spare slot the screen accepts.
// Allocations that cannot be placed are returned in Degraded and the
// mapping keeps its (wrong) placement — callers decide whether to serve
// degraded or refuse.
//
// The pass mutates the mapping's placements (MPE/NC/Slot of moved MCAs,
// the spare-region bookkeeping, and the MPEs/NCs totals) and bumps its
// Generation when anything moved; performance
// accounting still uses the original per-layer placement ranges, treating
// spares as co-located — a first-order simplification.
func (m *Mapping) RemapFaulty(health []MCAHealth, cfg RemapConfig) (*RemapReport, error) {
	if cfg.SpareMPEs < 0 {
		return nil, fmt.Errorf("mapping: negative spare pool %d", cfg.SpareMPEs)
	}
	if m.SpareFirst == 0 {
		m.SpareFirst = m.MPEs
	}
	if cfg.SpareMPEs > m.Spares {
		m.Spares = cfg.SpareMPEs
	}
	rep := &RemapReport{SparesUsed: m.spareCursor}
	// Deterministic processing order regardless of how the caller gathered
	// the health reports.
	sorted := append([]MCAHealth(nil), health...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Layer != sorted[j].Layer {
			return sorted[i].Layer < sorted[j].Layer
		}
		return sorted[i].Index < sorted[j].Index
	})
	totalTaps := 0
	for li := range m.Layers {
		for ai := range m.Layers[li].MCAs {
			totalTaps += m.Layers[li].MCAs[ai].Taps
		}
	}
	for _, h := range sorted {
		if h.Layer < 0 || h.Layer >= len(m.Layers) {
			return nil, fmt.Errorf("mapping: health report for layer %d of %d", h.Layer, len(m.Layers))
		}
		lm := &m.Layers[h.Layer]
		if h.Index < 0 || h.Index >= len(lm.MCAs) {
			return nil, fmt.Errorf("mapping: health report for MCA %d of layer %d (%d MCAs)", h.Index, h.Layer, len(lm.MCAs))
		}
		if !h.Dead && h.BadTaps <= cfg.MaxBadTaps {
			continue
		}
		rep.Faulty++
		a := &lm.MCAs[h.Index]
		moved := false
		for !moved {
			slot, ok := m.nextSpare()
			if !ok {
				break // pool exhausted
			}
			if cfg.Screen != nil && !cfg.Screen(slot, a) {
				continue // screened out; the slot is burned (it is faulty)
			}
			rep.Moves = append(rep.Moves, Move{
				Layer: h.Layer, Index: h.Index,
				From: fault.SlotID{MPE: a.MPE, Slot: a.Slot},
				To:   slot,
			})
			a.MPE, a.Slot = slot.MPE, slot.Slot
			a.NC = slot.MPE / m.Cfg.MPEsPerNC
			moved = true
		}
		if !moved {
			rep.Degraded = append(rep.Degraded, h)
			if h.Dead {
				rep.ResidualBadTaps += a.Taps
			} else {
				rep.ResidualBadTaps += h.BadTaps
			}
		}
	}
	rep.SparesUsed = m.spareCursor
	if len(rep.Moves) > 0 {
		m.gen.Add(1)
	}
	if totalTaps > 0 {
		rep.EstAccuracyLoss = float64(rep.ResidualBadTaps) / float64(totalTaps)
		if rep.EstAccuracyLoss > 1 {
			rep.EstAccuracyLoss = 1
		}
	}
	// Extend the chip to cover the consumed spares.
	if used := (m.spareCursor + m.Cfg.MCAsPerMPE - 1) / m.Cfg.MCAsPerMPE; used > 0 {
		if last := m.SpareFirst + used; last > m.MPEs {
			m.MPEs = last
		}
		if ncs := (m.MPEs + m.Cfg.MPEsPerNC - 1) / m.Cfg.MPEsPerNC; ncs > m.NCs {
			m.NCs = ncs
		}
	}
	return rep, nil
}

// nextSpare hands out spare slots in order: slot-major within each spare
// mPE. Returns ok=false when the pool is exhausted.
func (m *Mapping) nextSpare() (fault.SlotID, bool) {
	if m.spareCursor >= m.Spares*m.Cfg.MCAsPerMPE {
		return fault.SlotID{}, false
	}
	id := fault.SlotID{
		MPE:  m.SpareFirst + m.spareCursor/m.Cfg.MCAsPerMPE,
		Slot: m.spareCursor % m.Cfg.MCAsPerMPE,
	}
	m.spareCursor++
	return id, true
}

// inSpareRegion reports whether an mPE index lies in the spare pool.
func (m *Mapping) inSpareRegion(mpeIdx int) bool {
	return m.Spares > 0 && mpeIdx >= m.SpareFirst && mpeIdx < m.SpareFirst+m.Spares
}
