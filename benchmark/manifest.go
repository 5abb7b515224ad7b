package main

import "encoding/json"

type workloadEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchmarkManifest is BENCHMARK.json: exactly these keys.
type benchmarkManifest struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []workloadEntry `json:"workloads"`
	EndToEnd   []metricDef     `json:"end_to_end"`
	PerLayer   []metricDef     `json:"per_layer"`
}

func manifest() benchmarkManifest {
	m := benchmarkManifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEndMetrics,
		PerLayer:   perLayerMetrics,
	}
	for _, w := range workloads() {
		m.Workloads = append(m.Workloads, workloadEntry{w.name, w.why})
	}
	return m
}

func manifestJSON() ([]byte, error) {
	data, err := json.MarshalIndent(manifest(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
