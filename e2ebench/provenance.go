package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// provenance identifies the host and build a result came from, so numbers
// from different hosts are never compared silently.
type provenance struct {
	CPU        string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Git        string `json:"git"`
}

func hostProvenance() provenance {
	return provenance{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Git:        gitDescribe(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitDescribe describes the working directory's commit, with a -dirty
// suffix for uncommitted changes. The search for a repository stops at the
// working directory, so a source tree outside git reports "unknown".
func gitDescribe() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "describe", "--always", "--dirty")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
