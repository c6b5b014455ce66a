package snn

import "resparc/internal/tensor"

// RunBlockedK exposes the blocked runner's block size to the external test
// package, whose equivalence suite sweeps partial blocks against the stepped
// reference.
func (s *State) RunBlockedK(intensity tensor.Vec, enc Encoder, steps, blockK int, obs Observer) RunResult {
	return s.runBlockedK(intensity, enc, steps, blockK, obs)
}
