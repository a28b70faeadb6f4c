package workload

import (
	"slices"

	"github.com/repro/aegis/internal/isa"
	"github.com/repro/aegis/internal/rng"
)

// Websites returns the 45 attack-target sites (Alexa top-50 minus 5
// blocked, as in paper §III-C).
func Websites() []string { return slices.Clone(websites[:]) }

// websites is the list Websites copies.
var websites = [...]string{
	"google.com", "youtube.com", "facebook.com", "twitter.com",
	"instagram.com", "wikipedia.org", "yahoo.com", "whatsapp.com",
	"amazon.com", "live.com", "netflix.com", "reddit.com",
	"office.com", "linkedin.com", "zoom.us", "discord.com",
	"twitch.tv", "bing.com", "microsoft.com", "ebay.com",
	"apple.com", "stackoverflow.com", "github.com", "paypal.com",
	"adobe.com", "dropbox.com", "spotify.com", "cnn.com",
	"bbc.com", "nytimes.com", "espn.com", "imdb.com",
	"etsy.com", "walmart.com", "target.com", "booking.com",
	"airbnb.com", "salesforce.com", "slack.com", "pinterest.com",
	"quora.com", "medium.com", "shopify.com", "wordpress.com",
	"tumblr.com",
}

// siteProfile is the stable signature of a website, derived
// deterministically from its name. Two different sites differ in phase
// structure, instruction mixes and working sets, which is what makes them
// fingerprintable through HPCs.
type siteProfile struct {
	networkLen int // parse/network phase instructions
	domLen     int
	jsLen      int
	renderLen  int
	jsBranchy  float64 // branch weight of the JS phase
	renderVec  float64 // vector weight of the render phase
	domWS      uint64
	renderWS   uint64
	cryptoTLS  float64 // TLS handshake crypto weight
	intensity  int
}

func profileFor(site string) siteProfile {
	r := rng.New(rng.HashString(site)).Split("site-profile")
	return siteProfile{
		networkLen: 4000 + r.Intn(9000),
		domLen:     6000 + r.Intn(20000),
		jsLen:      5000 + r.Intn(40000),
		renderLen:  8000 + r.Intn(25000),
		jsBranchy:  1 + r.Float64()*5,
		renderVec:  1 + r.Float64()*6,
		domWS:      uint64(32<<10) << uint(r.Intn(4)), // 32K..256K
		renderWS:   uint64(256<<10) << uint(r.Intn(4)),
		cryptoTLS:  0.5 + r.Float64()*2,
		intensity:  500 + r.Intn(900),
	}
}

// WebsiteJob builds one page-load job for site. The per-load source r adds
// the natural variation between repeated loads of the same page (network
// timing, ads, cache state); pass a fresh stream per load.
func WebsiteJob(site string, r *rng.Source) Job {
	p := profileFor(site)
	jitter := func(n int) int {
		v := int(float64(n) * (1 + r.Gaussian(0, 0.08)))
		if v < 100 {
			v = 100
		}
		return v
	}
	return Job{
		Label: site,
		Phases: []Phase{
			{
				Name: "network-tls",
				Mix: Mix{
					isa.ClassALU:    3,
					isa.ClassLoad:   2,
					isa.ClassStore:  1,
					isa.ClassString: 2,
					isa.ClassCrypto: p.cryptoTLS,
					isa.ClassBranch: 1.5,
				},
				Instructions: jitter(p.networkLen),
				Intensity:    p.intensity,
				WorkingSet:   16 << 10,
			},
			{
				Name: "dom-build",
				Mix: Mix{
					isa.ClassALU:    2,
					isa.ClassLoad:   3,
					isa.ClassStore:  3,
					isa.ClassBranch: 1.5,
					isa.ClassBit:    0.5,
				},
				Instructions: jitter(p.domLen),
				Intensity:    p.intensity,
				WorkingSet:   p.domWS,
			},
			{
				Name: "js-exec",
				Mix: Mix{
					isa.ClassALU:    4,
					isa.ClassLoad:   2.5,
					isa.ClassStore:  1.5,
					isa.ClassBranch: p.jsBranchy,
					isa.ClassMul:    0.8,
					isa.ClassDiv:    0.2,
				},
				Instructions: jitter(p.jsLen),
				Intensity:    p.intensity,
				WorkingSet:   p.domWS * 2,
			},
			{
				Name: "render",
				Mix: Mix{
					isa.ClassSSE:   p.renderVec,
					isa.ClassAVX:   p.renderVec / 2,
					isa.ClassLoad:  3,
					isa.ClassStore: 2,
					isa.ClassALU:   1,
				},
				Instructions: jitter(p.renderLen),
				Intensity:    p.intensity,
				WorkingSet:   p.renderWS,
			},
		},
	}
}

// KeystrokeWindowTicks is the keystroke observation window (the paper uses
// 3 seconds; one tick models 1 ms, scaled down 10x like the traces).
const KeystrokeWindowTicks = 300

// KeystrokeJob builds a job with k keystroke bursts placed uniformly at
// random inside the observation window, separated by idle filler. Each
// keystroke triggers the interrupt path, keycode translation and terminal
// redraw of a real keypress.
func KeystrokeJob(k, windowTicks int, r *rng.Source) Job {
	if windowTicks <= 0 {
		windowTicks = KeystrokeWindowTicks
	}
	if k < 0 {
		k = 0
	}
	// Draw and sort burst positions.
	positions := make([]int, k)
	for i := range positions {
		positions[i] = r.Intn(windowTicks)
	}
	for i := 1; i < len(positions); i++ {
		for j := i; j > 0 && positions[j] < positions[j-1]; j-- {
			positions[j], positions[j-1] = positions[j-1], positions[j]
		}
	}

	const idlePerTick = 25 // background cursor blink, event loop
	burstMix := Mix{
		isa.ClassLoad:   2,
		isa.ClassStore:  2,
		isa.ClassALU:    2,
		isa.ClassBranch: 1.5,
		isa.ClassString: 1.5,
		isa.ClassSerial: 0.3, // interrupt entry/exit serialisation
	}
	idleMix := Mix{
		isa.ClassNop:    4,
		isa.ClassALU:    1,
		isa.ClassLoad:   0.5,
		isa.ClassBranch: 0.5,
	}

	job := Job{Label: keystrokeLabel(k)}
	prev := 0
	for _, pos := range positions {
		if gap := pos - prev; gap > 0 {
			job.Phases = append(job.Phases, Phase{
				Name:         "idle",
				Mix:          idleMix,
				Instructions: gap * idlePerTick,
				Intensity:    idlePerTick,
				WorkingSet:   4 << 10,
			})
		}
		job.Phases = append(job.Phases, Phase{
			Name:         "keystroke",
			Mix:          burstMix,
			Instructions: 500 + r.Intn(300),
			Intensity:    400,
			WorkingSet:   8 << 10,
		})
		prev = pos + 1
	}
	if gap := windowTicks - prev; gap > 0 {
		job.Phases = append(job.Phases, Phase{
			Name:         "idle",
			Mix:          idleMix,
			Instructions: gap * idlePerTick,
			Intensity:    idlePerTick,
			WorkingSet:   4 << 10,
		})
	}
	return job
}

func keystrokeLabel(k int) string {
	return "keys-" + string(rune('0'+k%10))
}

// KeystrokeLabel exposes the label format for attack datasets.
func KeystrokeLabel(k int) string { return keystrokeLabel(k) }
