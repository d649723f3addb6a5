// Wardrive with the paper's three-worker pipeline (§3).
//
// The paper's measurement program is "a multi-threaded program using
// the Scapy library": a discovery thread sniffing for unseen MACs, an
// injector thread sending fake frames to the target list, and a
// verifier thread matching the ACKs back. core.Scanner runs those
// three workers cooperatively on the simulation's event loop, so the
// same seed prints the same census every run. This example points it
// at a small street of homes and prints the census.
//
// Run: go run ./examples/wardrive
package main

import (
	"fmt"

	"politewifi/internal/core"
	"politewifi/internal/dot11"
	"politewifi/internal/eventsim"
	"politewifi/internal/mac"
	"politewifi/internal/phy"
	"politewifi/internal/radio"
)

func main() {
	sched := eventsim.NewScheduler()
	rng := eventsim.NewRNG(2020)
	medium := radio.NewMedium(sched, rng.Fork(), radio.Config{
		PathLoss: radio.LogDistance{Exponent: 2.3}, CaptureMarginDB: 10,
	})

	// A street with five homes: AP + one client each.
	for i := 0; i < 5; i++ {
		apMAC := dot11.MustMAC(fmt.Sprintf("f2:6e:0b:00:%02x:01", i))
		clMAC := dot11.MustMAC(fmt.Sprintf("ec:fa:bc:00:%02x:02", i))
		pos := radio.Position{X: float64(i) * 22}
		mac.New(medium, rng.Fork(), mac.Config{
			Name: fmt.Sprintf("ap%d", i), Addr: apMAC, Role: mac.RoleAP,
			Profile: mac.ProfileGenericAP, SSID: fmt.Sprintf("Home-%d", i),
			Position: pos, Band: phy.Band2GHz, Channel: 6,
		})
		cl := mac.New(medium, rng.Fork(), mac.Config{
			Name: fmt.Sprintf("cl%d", i), Addr: clMAC, Role: mac.RoleClient,
			Profile: mac.ProfileGenericClient, SSID: fmt.Sprintf("Home-%d", i),
			Position: radio.Position{X: pos.X + 4}, Band: phy.Band2GHz, Channel: 6,
		})
		cl.Associate(apMAC, nil)
		sched.Every(180*eventsim.Millisecond, func() {
			if cl.Associated() {
				cl.SendData(apMAC, []byte("telemetry"))
			}
		})
	}

	// The roof-mounted dongle.
	attacker := core.NewAttacker(medium, radio.Position{X: 44, Y: 12},
		phy.Band2GHz, 6, core.DefaultFakeMAC)
	scanner := core.NewScanner(attacker)

	fmt.Println("running the discovery/injector/verifier pipeline…")
	scanner.Start()
	sched.RunFor(5 * eventsim.Second)
	scanner.Stop()
	tally := scanner.Tally()

	fmt.Printf("\n%-20s %-8s %-10s %7s %6s %s\n", "MAC", "Kind", "SSID", "Probes", "ACKs", "Polite?")
	for _, d := range scanner.Devices() {
		fmt.Printf("%-20s %-8s %-10s %7d %6d %v\n",
			d.MAC, d.Kind, d.SSID, d.Probes, d.Acks, d.Responded)
	}
	fmt.Printf("\n%d devices (%d clients, %d APs) — %d responded to fake frames (%.0f%%)\n",
		tally.Total, tally.Clients, tally.APs, tally.TotalResponded,
		100*float64(tally.TotalResponded)/float64(max(1, tally.Total)))
	fmt.Println("the paper found the same for all 5,328 devices it met; run `politewifi wardrive` for the full census.")
}
