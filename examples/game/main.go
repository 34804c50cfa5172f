// Replicated game server: the paper's motivating application (§1, §5).
//
// Three replicas run the primary-backup scheme of §4 over SVS. The primary
// simulates game rounds — players move, projectiles spawn and die — and
// disseminates state updates. One backup is deliberately slow. Mid-game
// the primary crashes: the survivors install a new view, the first backup
// takes over as primary without losing state, and the game continues.
//
// Run with: go run ./examples/game
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/gamestate"
	"repro/internal/ident"
	"repro/internal/replica"
	"repro/internal/transport"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	net := transport.NewMemNetwork()
	group := ident.NewPIDs("server-1", "server-2", "server-3")
	view := core.View{ID: 1, Members: group}

	replicas := make(map[ident.PID]*replica.Replica)
	dets := make(map[ident.PID]*fd.Manual)
	for _, p := range group {
		ep, err := net.Endpoint(p)
		if err != nil {
			return err
		}
		det := fd.NewManual()
		r, err := replica.New(replica.Config{
			Self: p, Endpoint: ep, Detector: det, InitialView: view,
			ToDeliverCap: 16, OutgoingCap: 16, Window: 16, K: 32,
		})
		if err != nil {
			return err
		}
		r.OnViewChange(func(v core.View) {
			fmt.Printf("  [%s] installed %v\n", p, v)
		})
		r.Start()
		replicas[p] = r
		dets[p] = det
	}
	defer func() {
		for _, r := range replicas {
			r.Stop()
		}
		for _, d := range dets {
			d.Stop()
		}
	}()

	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	primary := replicas[group[0]]
	fmt.Printf("primary is %s\n", primary.Primary())

	// Five players enter the arena (a composite, atomic spawn).
	var spawn []gamestate.Update
	for pid := uint32(1); pid <= 5; pid++ {
		spawn = append(spawn, gamestate.Update{
			Op: gamestate.OpCreate, Item: pid,
			Pos: gamestate.Vec3{float32(pid) * 10, 0, 0}, Strength: 100,
		})
	}
	if err := primary.Execute(ctx, spawn...); err != nil {
		return err
	}

	// 200 game rounds: players move, occasionally a rocket flies.
	nextRocket := uint32(1000)
	playRounds := func(p *replica.Replica, rounds int) error {
		for r := 0; r < rounds; r++ {
			pid := uint32(rng.Intn(5) + 1)
			if err := p.Execute(ctx, gamestate.Update{
				Op: gamestate.OpUpdate, Item: pid,
				Pos:      gamestate.Vec3{rng.Float32() * 100, rng.Float32() * 100, 0},
				Vel:      gamestate.Vec3{rng.Float32(), rng.Float32(), 0},
				Strength: int32(50 + rng.Intn(50)),
			}); err != nil {
				return err
			}
			if r%20 == 10 { // fire a rocket: create, fly, explode
				rk := nextRocket
				nextRocket++
				if err := p.Execute(ctx, gamestate.Update{Op: gamestate.OpCreate, Item: rk}); err != nil {
					return err
				}
				if err := p.Execute(ctx, gamestate.Update{Op: gamestate.OpUpdate, Item: rk, Pos: gamestate.Vec3{1, 2, 3}}); err != nil {
					return err
				}
				if err := p.Execute(ctx, gamestate.Update{Op: gamestate.OpDestroy, Item: rk}); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := playRounds(primary, 200); err != nil {
		return err
	}

	waitEqual(replicas, group)
	fmt.Printf("after 200 rounds: all replicas at digest %x\n", primary.Digest())

	// The primary crashes mid-game.
	fmt.Printf("\n!!! crashing primary %s\n", group[0])
	net.Crash(group[0])
	replicas[group[0]].Stop()
	survivors := group.Remove(group[0])
	for _, p := range survivors {
		dets[p].Suspect(group[0])
	}
	if err := replicas[survivors[0]].RequestViewChange(group[0]); err != nil {
		return err
	}

	// Fail-over: the first surviving replica becomes primary.
	newPrimary := replicas[survivors[0]]
	for newPrimary.Primary() != survivors[0] {
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Printf("new primary is %s (state digest preserved: %x)\n",
		newPrimary.Primary(), newPrimary.Digest())

	// The game goes on.
	if err := playRounds(newPrimary, 100); err != nil {
		return err
	}
	waitEqual(replicas, survivors)
	fmt.Printf("after fail-over and 100 more rounds: survivors agree at digest %x\n", newPrimary.Digest())
	for _, p := range survivors {
		st := replicas[p].Engine().Stats()
		fmt.Printf("  [%s] applied %d updates, purged %d obsolete ones\n",
			p, replicas[p].Applied(), st.PurgedToDeliver)
	}
	return nil
}

// waitEqual blocks until every listed replica reports the same digest.
func waitEqual(rs map[ident.PID]*replica.Replica, who ident.PIDs) {
	deadline := time.Now().Add(15 * time.Second)
	for {
		d := rs[who[0]].Digest()
		same := true
		for _, p := range who[1:] {
			if rs[p].Digest() != d {
				same = false
				break
			}
		}
		if same {
			return
		}
		if time.Now().After(deadline) {
			log.Fatal("replicas never converged")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
