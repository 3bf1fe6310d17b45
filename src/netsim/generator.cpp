#include "netsim/generator.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "obs/trace.h"
#include "util/rng.h"
#include "util/strings.h"

namespace auric::netsim {

namespace {

using util::Rng;

/// LTE frequency plan used by the generator: two low-band, two mid-band and
/// one high-band layer, with their EARFCN-style "channel numbers" (the
/// Table 1 "Neighbor channel" examples 444/555/666 are anonymized channel
/// numbers; we keep the same flavor).
struct FrequencyPlan {
  int mhz;
  Band band;
  int channel;
};
constexpr FrequencyPlan kFreqPlan[] = {
    {700, Band::kLow, 444},  {850, Band::kLow, 555},  {1900, Band::kMid, 666},
    {2100, Band::kMid, 777}, {2600, Band::kHigh, 888},
};

int channel_of(int mhz) {
  for (const auto& f : kFreqPlan) {
    if (f.mhz == mhz) return f.channel;
  }
  throw std::logic_error("unknown frequency " + std::to_string(mhz));
}

Band band_of(int mhz) {
  for (const auto& f : kFreqPlan) {
    if (f.mhz == mhz) return f.band;
  }
  throw std::logic_error("unknown frequency " + std::to_string(mhz));
}

Timezone timezone_of_longitude(double lon_deg) {
  if (lon_deg > -85.0) return Timezone::kEastern;
  if (lon_deg > -97.0) return Timezone::kCentral;
  if (lon_deg > -112.0) return Timezone::kMountain;
  return Timezone::kPacific;
}

std::vector<Market> make_markets(const TopologyParams& params, Rng& rng) {
  std::vector<Market> markets;
  markets.reserve(static_cast<std::size_t>(params.num_markets));
  // Deep-dive markets of Table 3: Market 1 Mountain, 2 Central, 3 Eastern,
  // 4 Pacific, with relative sizes 1.07 : 0.91 : 1.58 : 1.0 (eNodeB counts
  // 1791 : 1521 : 2643 : 1679 in the paper).
  struct Fixed {
    double lon;
    double size;
  };
  constexpr Fixed kFixed[] = {{-106.0, 1.07}, {-93.0, 0.91}, {-80.0, 1.58}, {-120.0, 1.0}};

  const int cols = static_cast<int>(std::ceil(std::sqrt(static_cast<double>(params.num_markets))));
  for (int m = 0; m < params.num_markets; ++m) {
    Market market;
    market.id = m;
    market.name = "Market " + std::to_string(m + 1);
    if (m < 4) {
      market.center = {35.0 + 2.5 * m, kFixed[m].lon};
      market.size_multiplier = kFixed[m].size;
    } else {
      const int row = m / cols;
      const int col = m % cols;
      market.center = {31.0 + 16.0 * row / std::max(1, cols - 1) + rng.uniform(-1.0, 1.0),
                       -118.0 + 40.0 * col / std::max(1, cols - 1) + rng.uniform(-2.0, 2.0)};
      market.size_multiplier = rng.uniform(0.75, 1.3);
    }
    market.timezone = timezone_of_longitude(market.center.lon_deg);
    markets.push_back(market);
  }
  return markets;
}

Morphology morphology_of_radius(double r_frac) {
  if (r_frac < 0.25) return Morphology::kUrban;
  if (r_frac < 0.60) return Morphology::kSuburban;
  return Morphology::kRural;
}

/// The carrier layers deployed on one eNodeB (same set on every face, as is
/// standard practice). Frequencies picked by morphology: urban sites carry
/// more capacity layers, rural sites are coverage-driven.
std::vector<int> site_frequencies(Morphology morphology, Rng& rng) {
  std::vector<int> freqs{700};  // low-band coverage layer everywhere
  switch (morphology) {
    case Morphology::kUrban:
      freqs.push_back(1900);
      if (rng.bernoulli(0.7)) freqs.push_back(2100);
      if (rng.bernoulli(0.8)) freqs.push_back(2600);
      break;
    case Morphology::kSuburban:
      if (rng.bernoulli(0.35)) freqs.push_back(850);
      freqs.push_back(1900);
      if (rng.bernoulli(0.35)) freqs.push_back(2600);
      break;
    case Morphology::kRural:
      if (rng.bernoulli(0.5)) freqs.push_back(850);
      if (rng.bernoulli(0.5)) freqs.push_back(1900);
      break;
  }
  return freqs;
}

/// Downlink bandwidth of each layer is a market-level spectrum-plan decision
/// (how much spectrum the provider holds in that market), never a
/// per-carrier coin flip: all carriers of a frequency in a market share it.
int bandwidth_for(int mhz, MarketId market) {
  switch (mhz) {
    case 700: return 10;
    case 850: return market % 2 == 0 ? 5 : 10;
    case 1900: return (market * 3) % 5 < 3 ? 20 : 15;
    case 2100: return (market * 7) % 5 < 3 ? 20 : 15;
    case 2600: return 20;
  }
  return 10;
}

/// Expected cell size is a radio-planning attribute determined by the
/// environment and the layer's reach: deterministic in (morphology, band).
int cell_size_for(Morphology morphology, Band band) {
  switch (morphology) {
    case Morphology::kUrban: return band == Band::kLow ? 2 : 1;
    case Morphology::kSuburban: return band == Band::kLow ? 3 : 2;
    case Morphology::kRural: return band == Band::kLow ? 8 : 5;
  }
  return 2;
}

}  // namespace

Topology generate_topology(const TopologyParams& params) {
  obs::ScopedSpan span("netsim.generate_topology");
  if (params.num_markets < 1) throw std::invalid_argument("num_markets must be >= 1");
  if (params.base_enodebs_per_market < 1) {
    throw std::invalid_argument("base_enodebs_per_market must be >= 1");
  }

  Rng rng(params.seed);
  Topology topo;
  topo.markets = make_markets(params, rng);

  // --- eNodeBs and carriers ---
  for (const Market& market : topo.markets) {
    Rng market_rng = rng.fork(util::hash_combine({0xE0DEB5ULL, static_cast<std::uint64_t>(market.id)}));
    const int enodeb_count = std::max(
        1, static_cast<int>(std::lround(params.base_enodebs_per_market * market.size_multiplier)));

    // Per-market engineering context: dominant vendor, hardware refresh
    // level and software rollout quarter. These drive real cross-market
    // attribute variation, which is exactly what the chi-square dependency
    // scan must pick up.
    const int dominant_vendor = market.id % 3;
    const double hw_mean = 0.8 + 1.4 * ((market.id * 7) % 10) / 9.0;
    const int sw_base = (market.id * 5) % 5;
    const double market_mountain =
        params.mountain_fraction * ((market.id % 7 == 5) ? 4.0 : 1.0);

    for (int e = 0; e < enodeb_count; ++e) {
      ENodeB enodeb;
      enodeb.id = static_cast<ENodeBId>(topo.enodebs.size());
      enodeb.market = market.id;

      const double angle = market_rng.uniform(0.0, 2.0 * std::numbers::pi);
      const double r_frac = std::pow(market_rng.uniform(), 0.8);
      const double r_km = r_frac * params.market_radius_km;
      enodeb.location = offset_km(market.center, r_km * std::cos(angle), r_km * std::sin(angle));
      enodeb.morphology = morphology_of_radius(r_frac);

      if (enodeb.morphology == Morphology::kUrban && market_rng.bernoulli(params.highrise_fraction * 4.5)) {
        enodeb.terrain = Terrain::kDenseHighRise;
      } else if (market_rng.bernoulli(market_mountain *
                                      (enodeb.morphology == Morphology::kRural ? 2.0 : 0.5))) {
        enodeb.terrain = Terrain::kMountain;
      }

      const int hardware = static_cast<int>(std::clamp<std::int64_t>(
          std::llround(market_rng.normal(hw_mean, 0.8)), 0, 3));
      const int software = std::min<int>(6, sw_base + (market_rng.bernoulli(0.3) ? 1 : 0));
      // Sites are single-vendor installations; most of a market belongs to
      // its dominant RAN vendor, with a minority of legacy sites.
      const int site_vendor = market_rng.bernoulli(0.85)
                                  ? dominant_vendor
                                  : static_cast<int>(market_rng.uniform_int(0, 2));
      // Tracking areas partition the market into 8 contiguous zones
      // (4 azimuth sectors x 2 radial rings) — several sites per TA, as in
      // production paging-area planning.
      const int quadrant = static_cast<int>(angle / (std::numbers::pi / 2.0)) % 4;
      const int ring = r_frac < 0.45 ? 0 : 1;
      const int tac = market.id * 8 + quadrant * 2 + ring;
      const bool border = r_frac > 0.85;
      const bool nr_colocated = hardware >= 2 && market_rng.bernoulli(0.35);

      std::vector<int> freqs = site_frequencies(enodeb.morphology, market_rng);
      if (enodeb.morphology != Morphology::kRural && market_rng.bernoulli(0.30)) {
        freqs.push_back(-700);  // marker: FirstNet layer on 700 MHz (band 14)
      }
      if (market_rng.bernoulli(0.10)) {
        freqs.push_back(-850);  // marker: NB-IoT layer anchored at 850 MHz
      }

      enodeb.faces.resize(3);
      for (int face = 0; face < 3; ++face) {
        for (int freq_marker : freqs) {
          Carrier c;
          c.id = static_cast<CarrierId>(topo.carriers.size());
          c.enodeb = enodeb.id;
          c.market = market.id;
          c.face = face;
          if (freq_marker == -700) {
            c.frequency_mhz = 700;
            c.type = CarrierType::kFirstNet;
            c.bandwidth_mhz = 10;
          } else if (freq_marker == -850) {
            c.frequency_mhz = 850;
            c.type = CarrierType::kNbIot;
            c.bandwidth_mhz = 1;  // NB-IoT narrowband anchor
          } else {
            c.frequency_mhz = freq_marker;
            c.type = CarrierType::kStandard;
            c.bandwidth_mhz = bandwidth_for(freq_marker, market.id);
          }
          c.band = band_of(c.frequency_mhz);
          c.morphology = enodeb.morphology;
          c.terrain = enodeb.terrain;
          c.location = enodeb.location;
          c.hardware = hardware;
          c.software_version = software;
          c.tracking_area_code = tac;
          c.cell_size_miles = cell_size_for(enodeb.morphology, c.band);
          c.vendor = site_vendor;
          c.carrier_info = (nr_colocated ? 1 : 0) + (border ? 2 : 0);
          // MIMO capability follows the radio hardware and the layer: modern
          // RRHs run 4x4 on capacity layers, coverage layers stay 2x2.
          if (c.band != Band::kLow && hardware >= 2) {
            c.mimo = MimoMode::k4x4;
          } else if (c.band == Band::kLow) {
            c.mimo = hardware == 0 ? MimoMode::kOpenLoop2x2 : MimoMode::kClosedLoop2x2;
          } else {
            c.mimo = MimoMode::kClosedLoop2x2;
          }
          enodeb.faces[static_cast<std::size_t>(face)].push_back(c.id);
          enodeb.carriers.push_back(c.id);
          topo.carriers.push_back(c);
        }
      }
      topo.enodebs.push_back(std::move(enodeb));
    }
  }

  // "Neighbor channel": the channel number of the next carrier layer on the
  // same face that users are steered to (lowest other frequency = the
  // coverage layer users fall back to). Falls back to the carrier's own
  // channel on single-layer faces.
  for (const ENodeB& e : topo.enodebs) {
    for (const auto& face : e.faces) {
      for (CarrierId cid : face) {
        Carrier& c = topo.carriers[static_cast<std::size_t>(cid)];
        int best_mhz = c.frequency_mhz;
        for (CarrierId other : face) {
          if (other == cid) continue;
          const Carrier& o = topo.carriers[static_cast<std::size_t>(other)];
          if (o.frequency_mhz != c.frequency_mhz &&
              (best_mhz == c.frequency_mhz || o.frequency_mhz < best_mhz)) {
            best_mhz = o.frequency_mhz;
          }
        }
        c.neighbor_channel = channel_of(best_mhz);
      }
    }
  }

  // --- X2 neighbor graph ---
  topo.neighbors.assign(topo.carriers.size(), {});
  topo.site_neighbors.assign(topo.enodebs.size(), {});

  // Intra-eNodeB: complete relations between all carriers of a site (this is
  // what makes the "neighbors on same eNodeB" attribute land in the 8-10
  // range Table 1 quotes for typical multi-layer sites).
  for (const ENodeB& e : topo.enodebs) {
    for (CarrierId a : e.carriers) {
      for (CarrierId b : e.carriers) {
        if (a != b) topo.neighbors[static_cast<std::size_t>(a)].push_back(b);
      }
    }
  }

  // Inter-eNodeB: same-frequency relations to the x2_enodeb_degree nearest
  // sites in the same market (handover continuity along the coverage layer).
  std::vector<std::vector<ENodeBId>> market_sites(topo.markets.size());
  for (const ENodeB& e : topo.enodebs) {
    market_sites[static_cast<std::size_t>(e.market)].push_back(e.id);
  }
  for (const auto& sites : market_sites) {
    for (ENodeBId id : sites) {
      const ENodeB& e = topo.enodebs[static_cast<std::size_t>(id)];
      std::vector<std::pair<double, ENodeBId>> dists;
      dists.reserve(sites.size());
      for (ENodeBId other : sites) {
        if (other == id) continue;
        dists.emplace_back(
            haversine_km(e.location, topo.enodebs[static_cast<std::size_t>(other)].location),
            other);
      }
      const std::size_t degree =
          std::min<std::size_t>(dists.size(), static_cast<std::size_t>(params.x2_enodeb_degree));
      std::partial_sort(dists.begin(), dists.begin() + static_cast<std::ptrdiff_t>(degree),
                        dists.end());
      for (std::size_t d = 0; d < degree; ++d) {
        const ENodeB& other = topo.enodebs[static_cast<std::size_t>(dists[d].second)];
        topo.site_neighbors[static_cast<std::size_t>(e.id)].push_back(other.id);
        topo.site_neighbors[static_cast<std::size_t>(other.id)].push_back(e.id);
        for (CarrierId a : e.carriers) {
          const Carrier& ca = topo.carriers[static_cast<std::size_t>(a)];
          for (CarrierId b : other.carriers) {
            const Carrier& cb = topo.carriers[static_cast<std::size_t>(b)];
            if (ca.frequency_mhz == cb.frequency_mhz && ca.type == cb.type) {
              topo.neighbors[static_cast<std::size_t>(a)].push_back(b);
              topo.neighbors[static_cast<std::size_t>(b)].push_back(a);  // X2 is symmetric
            }
          }
        }
      }
    }
  }

  topo.finalize_edges();
  topo.check_invariants();
  return topo;
}

}  // namespace auric::netsim
