package measure

import (
	"bytes"
	"fmt"
	"strconv"
)

// ClockTick is USER_HZ, the unit of the CPU fields of /proc/<pid>/stat. It
// is 100 on every Linux ABI Go supports.
const ClockTick = 100

// ParseStatCPU extracts user+system CPU seconds from the contents of
// /proc/<pid>/stat. The command name (field 2) may contain spaces and
// parentheses, so fields are counted from the last ')'.
func ParseStatCPU(stat []byte) (float64, error) {
	end := bytes.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	// After the command: state(3) ppid pgrp session tty tpgid flags minflt
	// cminflt majflt cmajflt utime(14) stime(15).
	fields := bytes.Fields(stat[end+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command, want ≥13", len(fields))
	}
	utime, err := strconv.ParseUint(string(fields[11]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	stime, err := strconv.ParseUint(string(fields[12]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return float64(utime+stime) / ClockTick, nil
}

// ParseStatusKB extracts a "<key>:   <n> kB" line (VmHWM, VmRSS) from the
// contents of /proc/<pid>/status.
func ParseStatusKB(status []byte, key string) (int64, error) {
	for _, line := range bytes.Split(status, []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte(key+":"))
		if !ok {
			continue
		}
		fields := bytes.Fields(rest)
		if len(fields) != 2 || string(fields[1]) != "kB" {
			return 0, fmt.Errorf("proc status: malformed %s line %q", key, line)
		}
		return strconv.ParseInt(string(fields[0]), 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}
