package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// envStamp describes the machine a result was measured on. Fsync cost on
// tmpfs and on a disk differ by orders of magnitude, so the filesystem
// under the state directories is part of every result.
func envStamp(stateDir string) map[string]string {
	return map[string]string{
		"nproc":        fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs":   fmt.Sprint(runtime.GOMAXPROCS(0)),
		"cpu":          cpuModel(),
		"go":           runtime.Version(),
		"state_fs":     fsType(stateDir),
		"agent_link":   "loopback TCP in this process, not a network link",
		"switch_model": "SwitchConfig install and rate latencies zeroed (modelled sleeps, not program work)",
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
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

// fsMagic names the filesystems a state directory is likely to sit on.
var fsMagic = map[int64]string{
	0x01021994: "tmpfs",
	0xef53:     "ext4",
	0x58465342: "xfs",
	0x9123683e: "btrfs",
	0x794c7630: "overlayfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0x2fc12fc1: "zfs",
}

// fsType reports the filesystem type under dir by statfs.
func fsType(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "unknown"
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}
