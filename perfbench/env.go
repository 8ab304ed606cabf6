package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	uindex "repro"
	"repro/internal/pager"
)

// env is the machine and configuration a result was measured on.
type env struct {
	NumCPU     int            `json:"nproc"`
	GoMaxProcs int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Kernel     string         `json:"kernel"`
	IOUring    bool           `json:"io_uring"`
	DirFS      string         `json:"dir_filesystem,omitempty"`
	Seed       int64          `json:"seed"`
	Objects    map[string]int `json:"objects"`
	IndexPages map[string]int `json:"index_pages"`
	PoolPages  int            `json:"pool_pages_per_index"`
	NodeCache  int            `json:"node_cache_nodes_per_index"`
	Prefetch   bool           `json:"prefetch"`
	Durability string         `json:"durability"`
	Shards     int            `json:"shards"`
	WAL        map[string]any `json:"wal,omitempty"`
	WriteRate  int            `json:"offered_write_rate,omitempty"`
	Clients    int            `json:"clients"`
	Transport  string         `json:"transport"`
	// CPUSteal is the share of the machine's CPU time that the hypervisor
	// gave to other guests during the measured phase: runs with a high
	// share are slower for reasons outside the program.
	CPUSteal float64 `json:"cpu_steal_share"`
}

func environment(b *bench, seed int64, dir string) env {
	o := b.spec.opts
	e := env{
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     readTrim("/proc/sys/kernel/osrelease"),
		IOUring:    pager.UringAvailable(),
		Seed:       seed,
		Objects: map[string]int{
			"employees": len(b.employees), "companies": len(b.companies), "vehicles": len(b.vehicles),
		},
		IndexPages: b.indexPages,
		PoolPages:  o.PoolPages,
		NodeCache:  o.NodeCacheSize,
		Prefetch:   o.PoolPages > 0 && !o.NoPrefetch,
		Durability: "memory",
		Shards:     max(1, o.Shards),
		Clients:    b.spec.readers,
		Transport:  "in-process",
	}
	if b.spec.served {
		e.Transport = "loopback tcp"
	}
	if b.spec.disk {
		e.DirFS = filesystemOf(dir)
		e.Durability = map[uindex.Durability]string{
			uindex.DurabilityCheckpoint: "checkpoint", uindex.DurabilityWAL: "wal",
		}[o.Durability]
	}
	if e.NodeCache == 0 {
		e.NodeCache = 4096 // the btree default
	}
	if b.spec.writer {
		e.Clients++
		e.WriteRate = writeRate
		e.WAL = map[string]any{"checkpoint_bytes": o.WALCheckpointBytes, "max_delay_ns": o.WALMaxDelay.Nanoseconds(), "max_batch": o.WALMaxBatch}
		e.Objects["warmup_inserts"] = len(b.gen.Warmup)
	}
	return e
}

// cpuTicks returns the machine's busy-or-idle and steal CPU ticks from
// /proc/stat; zeros where the kernel does not say.
func cpuTicks() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	for i := 1; i < len(f) && i <= 8; i++ {
		x, _ := strconv.ParseFloat(f[i], 64)
		total += x
		if i == 8 {
			steal = x
		}
	}
	return total, steal
}

func readTrim(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return runtime.GOOS
	}
	return strings.TrimSpace(string(data))
}

// filesystemOf returns the type of the filesystem holding dir, from the
// longest matching mount point in /proc/self/mounts.
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := -1, "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, fs = len(mp), f[2]
		}
	}
	return fs
}
