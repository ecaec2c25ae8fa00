package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat (100 on every mainstream Linux build).
const clockTicks = 100

// bench owns every daemon and data directory a run creates, so one
// cleanup releases them on any exit path.
type bench struct {
	work string // scratch directory inside the checkout
	bin  string // eventdbd binary

	mu      sync.Mutex
	daemons map[*daemon]bool
	seq     int
}

type daemon struct {
	cmd  *exec.Cmd
	addr string
	dir  string // data directory ("" for in-memory)
	done chan struct{}
}

// prepare checks the binary and sweeps data directories a killed
// earlier run may have left behind.
func (b *bench) prepare() error {
	if _, err := os.Stat(b.bin); err != nil {
		return fmt.Errorf("eventdbd binary: %w", err)
	}
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return err
	}
	stale, _ := filepath.Glob(filepath.Join(b.work, "data-*"))
	for _, d := range stale {
		os.RemoveAll(d)
	}
	b.daemons = make(map[*daemon]bool)
	return nil
}

// spawn starts a fresh eventdbd on an ephemeral port and waits for its
// listening banner.
func (b *bench) spawn(durable bool) (*daemon, error) {
	b.mu.Lock()
	b.seq++
	seq := b.seq
	b.mu.Unlock()
	d := &daemon{done: make(chan struct{})}
	args := []string{"-addr", "127.0.0.1:0"}
	if durable {
		dir, err := filepath.Abs(filepath.Join(b.work, fmt.Sprintf("data-%d-%d", os.Getpid(), seq)))
		if err != nil {
			return nil, err
		}
		d.dir = dir
		args = append(args, "-dir", dir)
	}
	d.cmd = exec.Command(b.bin, args...)
	// The daemon dies with this process even if it is killed outright.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d.cmd.Stderr = io.Discard
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	b.daemons[d] = true
	b.mu.Unlock()
	if err := d.cmd.Start(); err != nil {
		b.forget(d)
		return nil, fmt.Errorf("start eventdbd: %w", err)
	}
	banner := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "eventdbd listening on "); ok {
				banner <- strings.Fields(rest)[0]
			}
		}
		io.Copy(io.Discard, stdout)
	}()
	go func() {
		d.cmd.Wait()
		close(d.done)
	}()
	select {
	case addr := <-banner:
		d.addr = addr
		return d, nil
	case <-d.done:
		b.stop(d)
		return nil, fmt.Errorf("eventdbd exited before listening: %v", d.cmd.ProcessState)
	case <-time.After(20 * time.Second):
		b.stop(d)
		return nil, fmt.Errorf("eventdbd printed no listening banner")
	}
}

// stop kills a daemon, waits for it to end, and removes its data dir.
func (b *bench) stop(d *daemon) {
	if d == nil {
		return
	}
	if d.cmd.Process != nil {
		d.cmd.Process.Kill()
		select {
		case <-d.done:
		case <-time.After(10 * time.Second):
		}
	}
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
	b.forget(d)
}

func (b *bench) forget(d *daemon) {
	b.mu.Lock()
	delete(b.daemons, d)
	b.mu.Unlock()
}

// cleanup stops every daemon still running. Safe to call repeatedly
// and from any goroutine.
func (b *bench) cleanup() {
	b.mu.Lock()
	var ds []*daemon
	for d := range b.daemons {
		ds = append(ds, d)
	}
	b.mu.Unlock()
	for _, d := range ds {
		b.stop(d)
	}
}

// cpuTicks reads the daemon's utime+stime from /proc/<pid>/stat.
func (d *daemon) cpuTicks() (uint64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("daemon cpu: %w", err)
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(data)
	rest := s[strings.LastIndexByte(s, ')')+2:]
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("daemon cpu: short stat line")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("daemon cpu: bad stat line")
	}
	return ut + st, nil
}

// peakRSSKB reads the daemon's VmHWM.
func (d *daemon) peakRSSKB() (uint64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("daemon status: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				return strconv.ParseUint(f[0], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("daemon status: no VmHWM")
}

// diskBytes sums the sizes of the files in the daemon's data dir.
func (d *daemon) diskBytes() int64 {
	total, _ := dirBytes(d.dir, "")
	return total
}

// dirBytes sums file sizes under dir, and separately those whose path
// contains sub.
func dirBytes(dir, sub string) (total, matched int64) {
	if dir == "" {
		return 0, 0
	}
	filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return nil
		}
		if info, err := e.Info(); err == nil {
			total += info.Size()
			if sub != "" && strings.Contains(path, sub) {
				matched += info.Size()
			}
		}
		return nil
	})
	return total, matched
}

// facts records the machine and source the result was measured on.
func (b *bench) facts() map[string]any {
	f := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos_arch":  runtime.GOOS + "/" + runtime.GOARCH,
	}
	if env := os.Getenv("GOMAXPROCS"); env != "" {
		f["gomaxprocs_env"] = env
	}
	if k, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		f["kernel"] = strings.TrimSpace(string(k))
	}
	if abs, err := filepath.Abs(b.work); err == nil {
		f["data_fs"] = fsType(abs)
	}
	f["commit"] = commit()
	return f
}

// fsType finds the filesystem type of the mount holding path.
func fsType(path string) string {
	data, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (path == mp || strings.HasPrefix(path, strings.TrimSuffix(mp, "/")+"/")) && len(mp) >= len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}

// commit names the source under test: the git HEAD when the checkout
// is a repository, otherwise a digest of the Go sources and go.mod.
func commit() string {
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		if r, ok := strings.CutPrefix(ref, "ref: "); ok {
			if id, err := os.ReadFile(filepath.Join(".git", r)); err == nil {
				return strings.TrimSpace(string(id))
			}
		}
		return ref
	}
	var files []string
	filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if e.IsDir() && strings.HasPrefix(e.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !e.IsDir() && (strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "go.mod")) {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(data))
		h.Write(data)
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}
