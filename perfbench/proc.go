package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat.
// It is 100 on every Linux ABI Go supports.
const clockTicks = 100

// procSample is one reading of a process's kernel counters.
type procSample struct {
	cpuSec       float64 // utime + stime
	syscr, syscw int64   // read/write syscalls
	ctxsw        int64   // voluntary + involuntary, summed over threads
	hwmKB        int64   // VmHWM
}

// parseStatCPU returns utime+stime in seconds from /proc/<pid>/stat.
// The comm field may hold spaces and parentheses, so fields are counted
// from the last ')'.
func parseStatCPU(b []byte) (float64, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat: no comm terminator")
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after comm, want >= 13", len(f))
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("stat: bad utime/stime %q %q", f[11], f[12])
	}
	return float64(ut+st) / clockTicks, nil
}

// parseKV reads "name: value ..." lines (the /proc io and status
// formats) and returns the integer value of each wanted name.
func parseKV(b []byte, want ...string) (map[string]int64, error) {
	out := make(map[string]int64, len(want))
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		for _, w := range want {
			if name != w {
				continue
			}
			f := strings.Fields(rest)
			if len(f) == 0 {
				return nil, fmt.Errorf("%s: no value", name)
			}
			v, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			out[name] = v
		}
	}
	for _, w := range want {
		if _, ok := out[w]; !ok {
			return nil, fmt.Errorf("field %q missing", w)
		}
	}
	return out, nil
}

// readProc samples the counters of process pid ("self" allowed) under
// root (normally /proc).
func readProc(root, pid string) (procSample, error) {
	var s procSample
	dir := filepath.Join(root, pid)
	b, err := os.ReadFile(filepath.Join(dir, "stat"))
	if err != nil {
		return s, err
	}
	if s.cpuSec, err = parseStatCPU(b); err != nil {
		return s, err
	}
	if b, err = os.ReadFile(filepath.Join(dir, "io")); err != nil {
		return s, err
	}
	io, err := parseKV(b, "syscr", "syscw")
	if err != nil {
		return s, fmt.Errorf("io: %w", err)
	}
	s.syscr, s.syscw = io["syscr"], io["syscw"]
	if b, err = os.ReadFile(filepath.Join(dir, "status")); err != nil {
		return s, err
	}
	st, err := parseKV(b, "VmHWM")
	if err != nil {
		return s, fmt.Errorf("status: %w", err)
	}
	s.hwmKB = st["VmHWM"]
	tasks, err := os.ReadDir(filepath.Join(dir, "task"))
	if err != nil {
		return s, err
	}
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, "task", t.Name(), "status"))
		if err != nil {
			continue // the thread exited between ReadDir and ReadFile
		}
		cs, err := parseKV(b, "voluntary_ctxt_switches", "nonvoluntary_ctxt_switches")
		if err != nil {
			return s, fmt.Errorf("task %s status: %w", t.Name(), err)
		}
		s.ctxsw += cs["voluntary_ctxt_switches"] + cs["nonvoluntary_ctxt_switches"]
	}
	return s, nil
}

func (a procSample) sub(b procSample) procSample {
	return procSample{
		cpuSec: a.cpuSec - b.cpuSec,
		syscr:  a.syscr - b.syscr,
		syscw:  a.syscw - b.syscw,
		ctxsw:  a.ctxsw - b.ctxsw,
		hwmKB:  a.hwmKB,
	}
}

// parseHostSteal returns the steal and total jiffies from the "cpu"
// line of /proc/stat: time the hypervisor ran something else while this
// VM's vCPUs were runnable. guest and guest_nice are already counted in
// user and nice, so the total stops at steal.
func parseHostSteal(b []byte) (steal, total int64, err error) {
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("stat: no aggregate cpu line with steal")
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("stat: cpu field %d: %w", i, err)
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total, nil
}

// hostSteal samples /proc/stat; stealFrac of two samples is the share
// of the VM's CPU time in between that the hypervisor took away.
func hostSteal() (steal, total int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	return parseHostSteal(b)
}
