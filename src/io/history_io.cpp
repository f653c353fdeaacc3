#include "io/history_io.h"

#include <cstdint>
#include <cstring>
#include <fstream>

#include "common/check.h"

namespace sarbp::io {
namespace {

constexpr char kMagic[8] = {'S', 'A', 'R', 'B', 'P', 'P', 'H', '1'};

struct Header {
  char magic[8];
  std::int64_t num_pulses;
  std::int64_t samples_per_pulse;
  double bin_spacing;
  double wavenumber;
};

}  // namespace

void save_phase_history(const std::string& path,
                        const sim::PhaseHistory& history) {
  std::ofstream out(path, std::ios::binary);
  ensure(out.good(), "save_phase_history: cannot open " + path);
  Header header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.num_pulses = history.num_pulses();
  header.samples_per_pulse = history.samples_per_pulse();
  header.bin_spacing = history.bin_spacing();
  header.wavenumber = history.wavenumber();
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  for (Index p = 0; p < history.num_pulses(); ++p) {
    const sim::PulseMeta& meta = history.meta(p);
    out.write(reinterpret_cast<const char*>(&meta), sizeof(meta));
  }
  for (Index p = 0; p < history.num_pulses(); ++p) {
    const auto pulse = history.pulse(p);
    out.write(reinterpret_cast<const char*>(pulse.data()),
              static_cast<std::streamsize>(pulse.size_bytes()));
  }
  ensure(out.good(), "save_phase_history: write failed for " + path);
}

sim::PhaseHistory load_phase_history(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  ensure(in.good(), "load_phase_history: cannot open " + path);
  Header header{};
  in.read(reinterpret_cast<char*>(&header), sizeof(header));
  ensure(in.good() && std::memcmp(header.magic, kMagic, sizeof(kMagic)) == 0,
         "load_phase_history: bad magic in " + path);
  ensure(header.num_pulses >= 0 && header.samples_per_pulse > 0,
         "load_phase_history: corrupt header");
  sim::PhaseHistory history(header.num_pulses, header.samples_per_pulse,
                            header.bin_spacing, header.wavenumber);
  for (Index p = 0; p < history.num_pulses(); ++p) {
    in.read(reinterpret_cast<char*>(&history.meta(p)),
            sizeof(sim::PulseMeta));
  }
  for (Index p = 0; p < history.num_pulses(); ++p) {
    auto pulse = history.pulse(p);
    in.read(reinterpret_cast<char*>(pulse.data()),
            static_cast<std::streamsize>(pulse.size_bytes()));
  }
  ensure(in.good(), "load_phase_history: truncated data in " + path);
  return history;
}

}  // namespace sarbp::io
