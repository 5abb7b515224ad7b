package experiments

import (
	"fmt"
)

// ChunkSweep quantifies the fine-grained strategy's chunk-size trade-off
// (DESIGN.md ablation 1) under the simulated executor: tiny chunks balance
// the skewed tail perfectly but pay a handout overhead per chunk; huge
// chunks amortize the handout but strand workers behind the heavy
// intermediate-category equations. The sweet spot moves with the overhead
// profile — visible by comparing -profile python and native.
type ChunkSweepConfig struct {
	// N is the array size; zero selects 30.
	N int
	// Workers is the parallelism; zero selects 16.
	Workers int
	// Chunks lists the chunk sizes to sweep; nil selects powers of four.
	Chunks []int
	// Profile is the executor profile; zero selects Python.
	Profile ExecProfile
	// Seed drives the workload.
	Seed int64
}

// ChunkSweep measures the problem's task costs and returns the simulated
// makespan per chunk size.
func ChunkSweep(cfg ChunkSweepConfig) (*Table, error) {
	if cfg.N == 0 {
		cfg.N = 30
	}
	if cfg.Workers == 0 {
		cfg.Workers = 16
	}
	if len(cfg.Chunks) == 0 {
		cfg.Chunks = []int{1, 4, 16, 64, 256, 1024, 4096}
	}
	if cfg.Profile == (ExecProfile{}) {
		cfg.Profile = PythonProfile
	}
	p, err := BuildProblem(cfg.N, cfg.Seed+int64(cfg.N))
	if err != nil {
		return nil, err
	}
	return chunkTable(MeasureTasks(p), cfg.Profile, cfg.Workers, cfg.Chunks), nil
}

// chunkTable is the pure part of ChunkSweep: the simulated makespans for a
// given task timing.
func chunkTable(t *TaskTiming, prof ExecProfile, workers int, chunks []int) *Table {
	tbl := NewTable("chunk", "makespan_s", "vs_serial")
	serial := t.SerialTime().Seconds()
	for _, chunk := range chunks {
		prof.Chunk = chunk
		mk := t.FineGrainedTime(prof, workers).Seconds()
		tbl.AddRow(chunk, fmt.Sprintf("%.6f", mk), fmt.Sprintf("%.2fx", serial/mk))
	}
	return tbl
}
