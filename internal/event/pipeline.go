package event

// Stage is the modeled duration of one (timestep, layer) pipeline stage,
// split by resource class: Sync is the global-control flag synchronization,
// Bus the occupancy of the chip's shared global bus (serializes across all
// stages of that chip), Local the NeuroCell-internal phases (switch
// delivery, time-multiplexed integration, spike drain) that overlap freely
// across layers.
type Stage struct{ Sync, Bus, Local int32 }

// PipelineStats is the outcome of one pipeline simulation.
type PipelineStats struct {
	// Makespan is the tick the last stage completes.
	Makespan int64
	// BusWait is the total ticks stages spent queued for their chip's
	// global bus, summed over chips.
	BusWait int64
	// LinkWait is, per hop, the total ticks rasters sat at the sender pad
	// after being ready: channel serialization plus receive-buffer
	// backpressure.
	LinkWait []int64
}

// Pipeline runs the Fig 7(a) layer pipeline of one classification across
// len(cuts)+1 chips. stages is indexed [timestep][global layer]; cuts are
// the ascending layer indices where a new chip begins (nil for one chip);
// hops[h][t] is the ticks hop h (chip h to chip h+1) takes to carry raster
// t; recvBuf bounds each receiving pad's buffer of undelivered rasters
// (< 1 selects one slot).
//
// Stage (chip s, timestep t, layer j) starts once (s, t-1, j) and
// (s, t, j-1) are done; a chip's first layer additionally waits for the
// upstream hop to deliver raster t. After its sync phase a stage holds its
// chip's global bus (a FIFO Resource) for its bus phase, then runs its local
// phase. A hop transfers rasters strictly in timestep order, one at a time,
// and only while the receiver has a free buffer slot; the slot frees when
// the receiving chip's first-layer stage for that timestep completes.
// Completions fire at priority s<<10+j and hop deliveries at 1<<20+h, so
// the schedule — and every statistic — is a pure function of the inputs.
func Pipeline(stages [][]Stage, cuts []int, hops [][]int64, recvBuf int) PipelineStats {
	S := len(cuts) + 1
	st := PipelineStats{LinkWait: make([]int64, S-1)}
	T := len(stages)
	if T == 0 || len(stages[0]) == 0 {
		return st
	}
	if recvBuf < 1 {
		recvBuf = 1
	}
	lo := make([]int, S+1) // chip s owns global layers [lo[s], lo[s+1])
	copy(lo[1:], cuts)
	lo[S] = len(stages[0])

	var eng Engine
	buses := make([]Resource, S) // one global bus per chip
	// need[s][t][j]: outstanding dependencies before stage (s,t,j) may start.
	need := make([][][]int8, S)
	for s := range need {
		need[s] = make([][]int8, T)
		for t := range need[s] {
			need[s][t] = make([]int8, lo[s+1]-lo[s])
			for j := range need[s][t] {
				if t > 0 {
					need[s][t][j]++
				}
				if j > 0 || s > 0 {
					need[s][t][j]++ // j==0 on s>0 waits for the link delivery
				}
			}
		}
	}

	// Per-hop link state: readyAt[t] is the tick the sender produced raster t
	// (-1 = not yet), next is the lowest unsent timestep, busy marks a
	// transfer in flight, credits the free receive-buffer slots.
	readyAt := make([][]int64, S-1)
	next := make([]int, S-1)
	busy := make([]bool, S-1)
	credits := make([]int, S-1)
	for h := range readyAt {
		readyAt[h] = make([]int64, T)
		for t := range readyAt[h] {
			readyAt[h][t] = -1
		}
		credits[h] = recvBuf
	}

	var launch func(s, t, j int)
	signal := func(s, t, j int) {
		if t >= T || j >= len(need[s][t]) {
			return
		}
		need[s][t][j]--
		if need[s][t][j] <= 0 {
			launch(s, t, j)
		}
	}
	var trySend func(h int)
	trySend = func(h int) {
		t := next[h]
		if t >= T || busy[h] || readyAt[h][t] < 0 || credits[h] == 0 {
			return
		}
		now := eng.Now()
		st.LinkWait[h] += now - readyAt[h][t]
		busy[h] = true
		credits[h]--
		eng.Schedule(now+hops[h][t], int32(1<<20+h), func() {
			busy[h] = false
			next[h]++
			signal(h+1, t, 0) // raster delivered: receiver's first layer may start
			trySend(h)
		})
	}
	launch = func(s, t, j int) {
		d := stages[t][lo[s]+j]
		busAt := eng.Now() + int64(d.Sync)
		end := busAt + int64(d.Local)
		if d.Bus > 0 {
			start := buses[s].Acquire(busAt, int64(d.Bus))
			end = start + int64(d.Bus) + int64(d.Local)
		}
		last := j == len(need[s][t])-1
		eng.Schedule(end, int32(s<<10+j), func() {
			if last && s < S-1 {
				// Raster t is on the sender pad.
				readyAt[s][t] = eng.Now()
				trySend(s)
			}
			if j == 0 && s > 0 {
				// Raster consumed: free a receive-buffer slot upstream.
				credits[s-1]++
				trySend(s - 1)
			}
			signal(s, t, j+1)
			signal(s, t+1, j)
		})
	}
	eng.Schedule(0, 0, func() { launch(0, 0, 0) })
	st.Makespan = eng.Run()
	for s := range buses {
		st.BusWait += buses[s].Wait()
	}
	return st
}
