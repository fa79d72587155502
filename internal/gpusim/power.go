package gpusim

// Energy accounting. The paper's motivation is power: "the data storage
// and input preprocessing nodes account for over 50% of power
// consumption in [Meta's] data centers, surpassing even the power usage
// of GPU trainers" (§2.1). The simulator therefore integrates a simple
// utilization-proportional power model over its timelines so the
// evaluation can compare the energy cost of CPU-tier preprocessing
// against RAP's leftover-GPU approach.

// PowerModel maps utilization to electrical power (watts).
type PowerModel struct {
	// GPUIdleW is one GPU's idle draw.
	GPUIdleW float64
	// GPUSMW is the additional draw of a fully busy SM array.
	GPUSMW float64
	// GPUMemW is the additional draw of fully utilized HBM.
	GPUMemW float64
	// HostIdleW is the host's base draw (board, DRAM, NICs).
	HostIdleW float64
	// HostCoreW is the additional draw per fully busy host worker.
	HostCoreW float64
}

// DefaultPowerModel is an A100-DGX-class calibration: a 400 W TDP GPU
// split into idle/compute/memory shares and a dual-socket host.
func DefaultPowerModel() PowerModel {
	return PowerModel{
		GPUIdleW:  60,
		GPUSMW:    240,
		GPUMemW:   100,
		HostIdleW: 150,
		HostCoreW: 8,
	}
}

// EnergyReport is the integrated energy of one simulation.
type EnergyReport struct {
	// GPUJoules is the summed energy of all GPUs over the makespan.
	GPUJoules float64
	// HostJoules is the host CPU tier's energy over the makespan.
	HostJoules float64
	// MakespanUs is the integration window.
	MakespanUs float64
}

// Total returns GPU + host energy.
func (e EnergyReport) Total() float64 { return e.GPUJoules + e.HostJoules }

// AvgGPUWatts returns the mean power draw across all GPUs combined.
func (e EnergyReport) AvgGPUWatts() float64 {
	if e.MakespanUs <= 0 {
		return 0
	}
	return e.GPUJoules / (e.MakespanUs * 1e-6)
}

// AvgHostWatts returns the host tier's mean draw.
func (e EnergyReport) AvgHostWatts() float64 {
	if e.MakespanUs <= 0 {
		return 0
	}
	return e.HostJoules / (e.MakespanUs * 1e-6)
}

// Energy integrates the power model over the result's utilization
// timelines. numGPUs should match the simulated cluster; a count
// exceeding the recorded timelines is clamped (the idle draw of GPUs
// the result never saw cannot be reconstructed), matching the
// zero-value behavior of the other query methods. A result recorded
// without timelines (ClusterConfig.Timelines unset) is charged only the
// host's idle draw.
func (r *Result) Energy(pm PowerModel, numGPUs, hostCores int) EnergyReport {
	rep := EnergyReport{MakespanUs: r.Makespan}
	if numGPUs > len(r.Util) {
		numGPUs = len(r.Util)
	}
	for g := 0; g < numGPUs; g++ {
		joules := pm.GPUIdleW * r.Makespan * 1e-6
		for _, seg := range r.Util[g] {
			dt := (seg.End - seg.Start) * 1e-6
			joules += (pm.GPUSMW*seg.SM + pm.GPUMemW*seg.MemBW) * dt
		}
		rep.GPUJoules += joules
	}
	rep.HostJoules = pm.HostIdleW * r.Makespan * 1e-6
	for _, seg := range r.HostUtil {
		dt := (seg.End - seg.Start) * 1e-6
		rep.HostJoules += pm.HostCoreW * float64(hostCores) * seg.CPU * dt
	}
	return rep
}

// HostSegment is a span of constant host-CPU utilization.
type HostSegment struct {
	Start, End float64
	// CPU is the granted fraction of the host pool in [0,1].
	CPU float64
}
