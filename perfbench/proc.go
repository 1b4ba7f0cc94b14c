package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// peakRSSMB reads VmHWM, the resident-set high-water mark, of process pid
// ("self" for this process) in MB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) < 1 {
			break
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
