package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// stamp is the context every result is printed with, so that absolute
// numbers read as facts about one machine and toolchain, not as a gate.
type stamp struct {
	CPU        string `json:"cpu"`
	MHz        string `json:"mhz"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func readStamp() stamp {
	st := stamp{
		CPU:        "unknown",
		MHz:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			k, v, ok := strings.Cut(sc.Text(), ":")
			if !ok {
				continue
			}
			k, v = strings.TrimSpace(k), strings.TrimSpace(v)
			switch {
			case k == "model name" && st.CPU == "unknown":
				st.CPU = v
			case k == "cpu MHz" && st.MHz == "unknown":
				st.MHz = v
			}
		}
		f.Close()
	}
	// The build stamps the revision when it runs inside a git work
	// tree; PERFBENCH_COMMIT names it for checkouts without one.
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		st.Commit = c
	} else if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			st.Commit = rev
			if dirty {
				st.Commit += "+dirty"
			}
		}
	}
	return st
}
