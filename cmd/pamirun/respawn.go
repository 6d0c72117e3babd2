package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strings"
	"syscall"
)

// runRespawnSupervisor is the -respawn parent: it launches this same
// binary as a worker (minus the -respawn flag, plus an -incarnation
// tag) and relaunches it with a bumped incarnation every time it dies
// to a signal, up to -spares times. A clean exit ends the job; a
// non-signal failure (e.g. a digest mismatch) propagates instead of
// respawning, because restarting cannot fix a wrong answer.
func runRespawnSupervisor(spares int) error {
	if spares < 0 {
		return fmt.Errorf("-spares %d: the respawn budget cannot be negative", spares)
	}
	args := os.Args[1:]
	listen, err := resolveListenAddr(findFlagValue(args, "listen"))
	if err != nil {
		return fmt.Errorf("pinning the worker listen address: %w", err)
	}
	for inc := 0; ; inc++ {
		cmd := exec.Command(os.Args[0], rewriteWorkerArgs(args, listen, inc)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("launching worker incarnation %d: %w", inc, err)
		}
		fmt.Printf("respawn: worker pid %d running as incarnation %d\n", cmd.Process.Pid, inc)
		err := cmd.Wait()
		if err == nil {
			fmt.Printf("respawn: worker finished cleanly after %d respawn(s)\n", inc)
			return nil
		}
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() {
				if inc >= spares {
					return fmt.Errorf("worker incarnation %d killed by %v and the -spares budget (%d) is exhausted", inc, ws.Signal(), spares)
				}
				fmt.Printf("respawn: worker pid %d killed by %v; relaunching as incarnation %d (%d spare(s) left)\n",
					cmd.Process.Pid, ws.Signal(), inc+1, spares-inc-1)
				continue
			}
		}
		return fmt.Errorf("worker incarnation %d failed (not a kill, not respawning): %w", inc, err)
	}
}

// resolveListenAddr pins a kernel-assigned port up front: every
// respawned incarnation must rebind the same address, or the survivors'
// redial loop points at a listener that no longer exists.
func resolveListenAddr(listen string) (string, error) {
	if listen == "" || strings.HasPrefix(listen, "unix:") {
		return listen, nil
	}
	_, port, err := net.SplitHostPort(listen)
	if err != nil || port != "0" {
		return listen, nil
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// rewriteWorkerArgs turns the supervisor's own argument list into the
// worker's: -respawn dropped, -listen pinned, -die-round kept only for
// incarnation 0 (the worker dies once; the spare must finish), and the
// incarnation appended so the wire handshake can fence the dead range.
// Both "-flag=value" and "-flag value" spellings are handled.
func rewriteWorkerArgs(args []string, listen string, inc int) []string {
	out := make([]string, 0, len(args)+1)
	skip := false
	for _, a := range args {
		if skip {
			skip = false
			continue
		}
		name, hasValue := splitFlagArg(a)
		switch name {
		case "respawn": // bool: a bare flag never consumes the next token
		case "incarnation":
			skip = !hasValue
		case "die-round":
			if inc > 0 {
				skip = !hasValue
			} else {
				out = append(out, a)
			}
		case "listen":
			if listen != "" {
				out = append(out, "-listen="+listen)
			}
			skip = !hasValue
		default:
			out = append(out, a)
		}
	}
	return append(out, fmt.Sprintf("-incarnation=%d", inc))
}

func splitFlagArg(a string) (name string, hasValue bool) {
	if !strings.HasPrefix(a, "-") {
		return "", false
	}
	s := strings.TrimLeft(a, "-")
	if i := strings.IndexByte(s, '='); i >= 0 {
		return s[:i], true
	}
	return s, false
}

// findFlagValue digs a flag's value out of a raw argument list without
// a flag.FlagSet (the supervisor must not consume the worker's flags).
func findFlagValue(args []string, flagName string) string {
	for i, a := range args {
		name, hasValue := splitFlagArg(a)
		if name != flagName {
			continue
		}
		if hasValue {
			s := strings.TrimLeft(a, "-")
			return s[strings.IndexByte(s, '=')+1:]
		}
		if i+1 < len(args) {
			return args[i+1]
		}
	}
	return ""
}
