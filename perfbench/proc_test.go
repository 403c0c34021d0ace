package main

import "testing"

func TestReadProcFixture(t *testing.T) {
	s, err := readProc("testdata/proc", "4242")
	if err != nil {
		t.Fatal(err)
	}
	want := procSample{cpuSec: 10, syscr: 5123, syscw: 4077, ctxsw: 10 + 1 + 300 + 25, hwmKB: 51234}
	if s != want {
		t.Errorf("readProc = %+v, want %+v", s, want)
	}
}

func TestParseStatCPUCommWithParens(t *testing.T) {
	b := []byte("7 (a) b) c) R 1 7 7 0 -1 0 0 0 0 0 250 50 0 0 20 0 1 0 1 1 1\n")
	got, err := parseStatCPU(b)
	if err != nil || got != 3 {
		t.Errorf("parseStatCPU = %v, %v; want 3s", got, err)
	}
	if _, err := parseStatCPU([]byte("7 (x R 1")); err == nil {
		t.Error("truncated stat parsed without error")
	}
}

func TestParseKVMissingField(t *testing.T) {
	if _, err := parseKV([]byte("syscr: 1\n"), "syscr", "syscw"); err == nil {
		t.Error("missing syscw not reported")
	}
}

func TestReadProcSelf(t *testing.T) {
	s, err := readProc("/proc", "self")
	if err != nil {
		t.Skipf("no /proc here: %v", err)
	}
	if s.hwmKB <= 0 || s.ctxsw < 0 {
		t.Errorf("implausible self sample %+v", s)
	}
}

func TestParseHostSteal(t *testing.T) {
	b := []byte("cpu  100 5 50 800 10 0 20 15 7 0\ncpu0 50 0 25 400 5 0 10 8 0 0\n")
	steal, total, err := parseHostSteal(b)
	if err != nil || steal != 15 || total != 1000 {
		t.Errorf("parseHostSteal = %d, %d, %v; want 15, 1000", steal, total, err)
	}
	if _, _, err := parseHostSteal([]byte("cpu 1 2 3\n")); err == nil {
		t.Error("short cpu line parsed without error")
	}
}
