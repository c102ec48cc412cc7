package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// hostInfo identifies the machine and code a report was measured on. Two
// reports are comparable only when every field but Revision and Source
// matches (see compareMain).
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Revision   string `json:"revision"`
	// Source is a SHA-256 over the simulator's sources (internal/), so a
	// report identifies the code even where no VCS revision is stamped.
	Source string `json:"source_sha256"`
}

func readHost(root string) hostInfo {
	h := hostInfo{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Revision:   "unknown",
		Source:     sourceDigest(filepath.Join(root, "internal")),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Revision = s.Value
			}
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.modified" && s.Value == "true" {
				h.Revision += "+modified"
			}
		}
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes every file under dir in lexical path order.
func sourceDigest(dir string) string {
	sum := sha256.New()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		fmt.Fprintf(sum, "%s %d\n", rel, len(b))
		sum.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(sum.Sum(nil))
}

// probeResult is the output of the host calibration probes.
type probeResult struct {
	ChaseNs    float64 `json:"chase_ns"`
	StreamGBps float64 `json:"stream_gbps"`
	ChainMiB   float64 `json:"chain_mib"`
}

// hostProbes runs the calibration probes in a child process, so their
// buffer does not count towards this process's peak RSS, and records them.
func hostProbes(self string, rep *report) error {
	out, err := exec.Command(self, "probe").Output()
	if err != nil {
		return err
	}
	var p probeResult
	if err := json.Unmarshal(out, &p); err != nil {
		return err
	}
	add := rep.extra
	if rep.Trace {
		add = rep.set
	}
	add("host.chase_ns", p.ChaseNs, "ns")
	add("host.stream_gbps", p.StreamGBps, "GB/s")
	rep.extra("host.chain_mib", p.ChainMiB, "MiB")
	return nil
}

// probeMain measures dependent-load latency and read bandwidth over a buffer
// larger than the last-level cache. A noisy neighbour or a slower host shows
// up here rather than as a simulator regression.
func probeMain(w io.Writer) int {
	bytes := chainBytes()
	chaseNs, buf := chase(bytes, 1<<21)
	gbps := 0.0
	for i := 0; i < 3; i++ {
		if g := stream(buf); g > gbps {
			gbps = g
		}
	}
	return printJSON(w, probeResult{ChaseNs: chaseNs, StreamGBps: gbps, ChainMiB: float64(bytes) / (1 << 20)})
}

func printJSON(w io.Writer, v any) int {
	b, err := json.Marshal(v)
	if err != nil {
		return 1
	}
	fmt.Fprintln(w, string(b))
	return 0
}

// chainBytes sizes the chain at 1.25x the last-level cache, within
// [64 MiB, 512 MiB].
func chainBytes() int {
	const lo, hi = 64 << 20, 512 << 20
	llc := 0
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		b, err := os.ReadFile(dir + "size")
		if err != nil {
			break
		}
		s := strings.TrimSpace(string(b))
		mult := 1
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.Atoi(s); err == nil && n*mult > llc {
			llc = n * mult
		}
	}
	return min(max(llc+llc/4, lo), hi)
}

// lineWords is the number of uint64 words in one 64 B cache line. The chain
// keeps one "next" index per line, like a CacheLine{next, payload[7]} node.
const lineWords = 8

// chase builds one random cycle through every line of a bytes-sized buffer
// (Sattolo's shuffle) and returns the mean latency of loads dependent load
// steps along it. Go allocates large slices page-aligned, so every node
// sits in its own 64 B line.
func chase(bytes, loads int) (float64, []uint64) {
	n := bytes / 64
	buf := make([]uint64, n*lineWords)
	for i := 0; i < n; i++ {
		buf[i*lineWords] = uint64(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		buf[i*lineWords], buf[j*lineWords] = buf[j*lineWords], buf[i*lineWords]
	}
	p := uint64(0)
	for i := 0; i < loads/8; i++ { // warm the TLB and page tables
		p = buf[p*lineWords]
	}
	start := time.Now()
	for i := 0; i < loads; i++ {
		p = buf[p*lineWords]
	}
	ns := float64(time.Since(start).Nanoseconds()) / float64(loads)
	buf[1] = p // keep the chain live
	return ns, buf
}

// stream reads buf sequentially and returns the bandwidth in GB/s.
func stream(buf []uint64) float64 {
	start := time.Now()
	var s0, s1, s2, s3 uint64
	for i := 0; i+3 < len(buf); i += 4 {
		s0 += buf[i]
		s1 += buf[i+1]
		s2 += buf[i+2]
		s3 += buf[i+3]
	}
	sec := time.Since(start).Seconds()
	buf[2] = s0 + s1 + s2 + s3
	return float64(len(buf)*8) / sec / 1e9
}

// compareMain prints the relative change of every metric two reports share.
// It refuses reports measured on different hosts: absolute timings from two
// machines say nothing about the code.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare base.json new.json")
		return 2
	}
	var reps [2]report
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &reps[i])
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
	}
	a, b := reps[0], reps[1]
	ha, hb := a.Host, b.Host
	ha.Revision, hb.Revision, ha.Source, hb.Source = "", "", "", ""
	if ha != hb {
		fmt.Fprintf(stderr, "perfbench: refusing to compare reports from different hosts:\n  %+v\n  %+v\n", ha, hb)
		return 2
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		fmt.Fprintf(stderr, "perfbench: refusing to compare %s (trace=%t) with %s (trace=%t)\n",
			a.Workload, a.Trace, b.Workload, b.Trace)
		return 2
	}
	names := make([]string, 0, len(a.Metrics))
	for n := range a.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, ok := b.Metrics[n]; !ok {
			continue
		}
		x, y := a.Metrics[n].Value, b.Metrics[n].Value
		change := "n/a"
		if x != 0 {
			change = fmt.Sprintf("%+.2f%%", 100*(y/x-1))
		}
		fmt.Fprintf(stdout, "%-36s %14.6g %14.6g %9s %s\n", n, x, y, change, a.Metrics[n].Unit)
	}
	return 0
}
