package workloads

// The oversubscription sweep driver: the measurement harness behind
// `groutbench -fig oversub`, whose values internal/bench's figure golden
// pins.
// It runs a fixed kernel-sweep microworkload on a single simulated GPU at
// footprints from below device memory to deep oversubscription, across
// every access pattern and prefetch/eviction policy combination, and
// records where each policy's thrashing cliff sits.

import (
	"fmt"

	"grout/internal/gpusim"
	"grout/internal/memmodel"
)

// SweepPoint is one cell of the oversubscription sweep.
type SweepPoint struct {
	// Factor is the oversubscription factor: footprint over device memory.
	Factor float64 `json:"factor"`
	// Pattern is the access pattern swept.
	Pattern string `json:"pattern"`
	// Prefetch and Evict name the policy combination.
	Prefetch string `json:"prefetch"`
	Evict    string `json:"evict"`
	// NsPerLaunch is the mean modeled wall time per kernel launch.
	NsPerLaunch int64 `json:"ns_per_launch"`
	// BytesMigrated is the total migration traffic over the run.
	BytesMigrated int64 `json:"bytes_migrated"`
	// Regimes counts launches per migration regime.
	Regimes map[string]int `json:"regimes"`
}

// SweepConfig parameterizes OversubscriptionSweep.
type SweepConfig struct {
	// Factors are the oversubscription factors (footprint / device
	// memory). Zero-length selects the default 0.5x → 4x ladder.
	Factors []float64
	// Patterns are the access patterns to sweep. Zero-length selects all.
	Patterns []memmodel.Pattern
	// Combos are (prefetch, evict) policy pairs. Zero-length selects the
	// full cross product of registered policies.
	Combos [][2]string
	// Launches is the number of kernel launches per cell (default 8).
	Launches int
	// Device overrides the swept GPU (default a V100). CI boxes point
	// this at a scaled-down spec so the ladder stays cheap.
	Device *gpusim.DeviceSpec
	// HostMemory overrides the node's host memory (default 512 GiB); it
	// bounds how deep the eviction target can spill.
	HostMemory memmodel.Bytes
}

// DefaultSweepFactors is the footprint ladder of the oversubscription
// sweep: below device memory, at it, and past every pattern's cliff.
func DefaultSweepFactors() []float64 {
	return []float64{0.5, 1.0, 1.5, 2.0, 3.0, 4.0}
}

// AllPatterns lists the access patterns the sweep covers.
func AllPatterns() []memmodel.Pattern {
	return []memmodel.Pattern{
		memmodel.Sequential, memmodel.Strided, memmodel.Broadcast, memmodel.Random,
	}
}

// AllPolicyCombos is the cross product of the registered prefetch and
// eviction policies.
func AllPolicyCombos() [][2]string {
	var combos [][2]string
	for _, p := range gpusim.PrefetchPolicyNames() {
		for _, e := range gpusim.EvictionPolicyNames() {
			combos = append(combos, [2]string{p, e})
		}
	}
	return combos
}

func (c SweepConfig) withDefaults() SweepConfig {
	if len(c.Factors) == 0 {
		c.Factors = DefaultSweepFactors()
	}
	if len(c.Patterns) == 0 {
		c.Patterns = AllPatterns()
	}
	if len(c.Combos) == 0 {
		c.Combos = AllPolicyCombos()
	}
	if c.Launches <= 0 {
		c.Launches = 8
	}
	if c.Device == nil {
		d := gpusim.V100Spec("sweep/gpu0")
		c.Device = &d
	}
	if c.HostMemory <= 0 {
		c.HostMemory = 512 * memmodel.GiB
	}
	return c
}

// OversubscriptionSweep measures one SweepPoint per (factor, pattern,
// policy combo) cell. Every cell runs on a fresh single-V100 node whose
// live UVM allocation is exactly factor × device memory, so the node's
// allocation pressure is the paper's oversubscription x-axis.
func OversubscriptionSweep(cfg SweepConfig) ([]SweepPoint, error) {
	cfg = cfg.withDefaults()
	var out []SweepPoint
	for _, combo := range cfg.Combos {
		for _, pattern := range cfg.Patterns {
			for _, factor := range cfg.Factors {
				pt, err := sweepCell(cfg, factor, pattern, combo)
				if err != nil {
					return nil, err
				}
				out = append(out, pt)
			}
		}
	}
	return out, nil
}

func sweepCell(cfg SweepConfig, factor float64, pattern memmodel.Pattern, combo [2]string) (SweepPoint, error) {
	launches := cfg.Launches
	spec := gpusim.NodeSpec{
		Name:       "sweep",
		Devices:    []gpusim.DeviceSpec{*cfg.Device},
		HostMemory: cfg.HostMemory,
	}
	n := gpusim.NewNode(spec)
	if err := n.UseMemoryPolicies(combo[0], combo[1]); err != nil {
		return SweepPoint{}, err
	}
	size := memmodel.Bytes(factor * float64(spec.TotalDeviceMemory()))
	id, err := n.Alloc(size)
	if err != nil {
		return SweepPoint{}, fmt.Errorf("sweep cell %.1fx: %w", factor, err)
	}

	pt := SweepPoint{
		Factor:   factor,
		Pattern:  pattern.String(),
		Prefetch: combo[0],
		Evict:    combo[1],
		Regimes:  make(map[string]int),
	}
	kc := gpusim.KernelCost{Name: "sweep", Elements: 1 << 20, OpsPerElement: 2}
	var end int64
	for i := 0; i < launches; i++ {
		res, err := n.Launch(0, 0, kc, []gpusim.ArgBinding{
			{Alloc: id, Access: memmodel.Access{
				Mode: memmodel.Read, Pattern: pattern, Fraction: 1, Passes: 1,
			}},
		}, 0)
		if err != nil {
			return SweepPoint{}, err
		}
		end = int64(res.Interval.End)
		pt.BytesMigrated += int64(res.BytesMigrated)
		pt.Regimes[res.Regime.String()]++
	}
	pt.NsPerLaunch = end / int64(launches)
	return pt, nil
}
