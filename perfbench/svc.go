package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/gosmr/gosmr/internal/kvsvc"
)

// server is one gosmrd child process. Only the listen addresses are
// set; every behavioural flag keeps gosmrd's default, so a change to a
// default is what this benchmark measures.
type server struct {
	cmd      *exec.Cmd
	pid      string
	addr     string
	admin    string
	launched time.Time
	stdout   bytes.Buffer
	stderr   bytes.Buffer // everything after the banner line
	done     chan error
}

var bannerRE = regexp.MustCompile(` on (\S+), admin on (\S+)$`)

func startServer(bin string) (*server, error) {
	s := &server{done: make(chan error, 1)}
	s.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-admin", "127.0.0.1:0")
	s.cmd.Stdout = &s.stdout
	// Pdeathsig: a benchmark killed mid-run takes its server with it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	errPipe, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	s.launched = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start gosmrd: %w", err)
	}
	s.pid = strconv.Itoa(s.cmd.Process.Pid)
	banner := make(chan string, 1)
	copied := make(chan struct{})
	go func() {
		defer close(copied)
		br := bufio.NewReader(errPipe)
		line, _ := br.ReadString('\n')
		banner <- strings.TrimSpace(line)
		io.Copy(&s.stderr, br)
	}()
	go func() {
		<-copied // Wait must not close the pipe before the copy drains it
		s.done <- s.cmd.Wait()
	}()
	select {
	case line := <-banner:
		m := bannerRE.FindStringSubmatch(line)
		if m == nil {
			s.kill()
			return nil, fmt.Errorf("gosmrd banner not recognised: %q", line)
		}
		s.addr, s.admin = m[1], m[2]
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, fmt.Errorf("gosmrd did not start within 30s")
	}
	return s, nil
}

func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.done
}

func (s *server) proc() (procSample, error) { return readProc("/proc", s.pid) }

// stats scrapes the admin endpoint. The handler runs
// runtime.ReadMemStats, which stops the world, so callers scrape only
// at window edges.
func (s *server) stats() (kvsvc.AdminStats, error) {
	var st kvsvc.AdminStats
	c := http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get("http://" + s.admin + "/stats")
	if err != nil {
		return st, fmt.Errorf("admin stats: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("admin stats: %w", err)
	}
	return st, nil
}

// stop sends SIGTERM and asserts a clean drain: exit 0, a drain receipt
// with zero unreclaimed nodes and zero arena violations. Any other
// outcome is a failed run.
func (s *server) stop() error {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.done:
		if err != nil {
			return fmt.Errorf("gosmrd drain: %v: %s", err, strings.TrimSpace(s.stderr.String()))
		}
	case <-time.After(30 * time.Second):
		s.kill()
		return fmt.Errorf("gosmrd did not drain within 30s")
	}
	var rcpt kvsvc.AdminStats
	if err := json.Unmarshal(s.stdout.Bytes(), &rcpt); err != nil {
		return fmt.Errorf("gosmrd drain receipt: %w", err)
	}
	if rcpt.Total.Unreclaimed != 0 || rcpt.ArenaUAF != 0 || rcpt.ArenaDoubleFree != 0 {
		return fmt.Errorf("gosmrd drain not clean: unreclaimed=%d uaf=%d double_free=%d",
			rcpt.Total.Unreclaimed, rcpt.ArenaUAF, rcpt.ArenaDoubleFree)
	}
	return nil
}
