#include "serde/snapshot.h"

#include <cstdlib>
#include <fstream>
#include <istream>
#include <ostream>

#include "common/error.h"
#include "common/strings.h"
#include "faultinject/fault.h"
#include "serde/durable.h"
#include "serde/stream.h"

namespace doseopt::serde {

namespace {

faultinject::FaultPoint g_fault_write("serde.snapshot_write");
faultinject::FaultPoint g_fault_read("serde.snapshot_read");

constexpr std::string_view kMagic = "DOSESNAP";

void put_spec(ByteWriter& w, const gen::DesignSpec& spec) {
  w.put_string(spec.name);
  w.put_string(spec.tech);
  w.put_u64(spec.target_cells);
  w.put_u64(spec.target_nets);
  w.put_f64(spec.chip_area_mm2);
  w.put_f64(spec.flop_fraction);
  w.put_i32(spec.logic_depth);
  w.put_f64(spec.depth_balance);
  w.put_f64(spec.depth_taper);
  w.put_u64(spec.seed);
}

gen::DesignSpec get_spec(ByteReader& r) {
  gen::DesignSpec spec;
  spec.name = r.get_string();
  spec.tech = r.get_string();
  spec.target_cells = r.get_u64();
  spec.target_nets = r.get_u64();
  spec.chip_area_mm2 = r.get_f64();
  spec.flop_fraction = r.get_f64();
  spec.logic_depth = r.get_i32();
  spec.depth_balance = r.get_f64();
  spec.depth_taper = r.get_f64();
  spec.seed = r.get_u64();
  return spec;
}

void put_netlist(ByteWriter& w, const netlist::Netlist& nl) {
  w.put_string(nl.design_name());
  w.put_string(nl.tech_name());
  w.put_u64(nl.net_count());
  for (const netlist::Net& net : nl.nets()) w.put_string(net.name);
  w.put_u64(nl.cell_count());
  for (const netlist::Cell& cell : nl.cells()) {
    w.put_string(cell.name);
    w.put_u64(cell.master_index);
    w.put_u32(cell.output_net);
  }
  // Sink lists per net, in stored order: STA sums net loads in sink order,
  // so replaying connect_input in this exact order keeps timing bit-exact.
  for (const netlist::Net& net : nl.nets()) {
    w.put_u64(net.sinks.size());
    for (const netlist::SinkPin& s : net.sinks) {
      w.put_u32(s.cell);
      w.put_i32(s.pin);
    }
  }
  w.put_u32_vec(nl.primary_inputs());
  w.put_u32_vec(nl.primary_outputs());
}

std::unique_ptr<netlist::Netlist> get_netlist(
    ByteReader& r, const std::vector<liberty::CellMaster>* masters) {
  std::string design_name = r.get_string();
  std::string tech_name = r.get_string();
  auto nl = std::make_unique<netlist::Netlist>(std::move(design_name),
                                               std::move(tech_name), masters);
  const std::uint64_t net_count = r.get_u64();
  for (std::uint64_t n = 0; n < net_count; ++n) nl->add_net(r.get_string());
  const std::uint64_t cell_count = r.get_u64();
  for (std::uint64_t c = 0; c < cell_count; ++c) {
    std::string name = r.get_string();
    const std::uint64_t master_index = r.get_u64();
    const std::uint32_t out = r.get_u32();
    nl->add_cell(std::move(name), master_index, out);
  }
  for (std::uint64_t n = 0; n < net_count; ++n) {
    const std::uint64_t sink_count = r.get_u64();
    for (std::uint64_t s = 0; s < sink_count; ++s) {
      const std::uint32_t cell = r.get_u32();
      const std::int32_t pin = r.get_i32();
      nl->connect_input(cell, pin, static_cast<netlist::NetId>(n));
    }
  }
  for (const std::uint32_t n : r.get_u32_vec()) nl->mark_primary_input(n);
  for (const std::uint32_t n : r.get_u32_vec()) nl->mark_primary_output(n);
  nl->validate();
  return nl;
}

void put_placement(ByteWriter& w, const place::Placement& placement) {
  const place::Die& die = placement.die();
  w.put_f64(die.width_um);
  w.put_f64(die.height_um);
  w.put_f64(die.row_height_um);
  w.put_f64(die.site_width_um);
  const std::size_t cells = placement.netlist().cell_count();
  w.put_u64(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    const place::CellLocation loc =
        placement.location(static_cast<netlist::CellId>(c));
    w.put_i32(loc.row);
    w.put_i32(loc.site);
  }
}

std::unique_ptr<place::Placement> get_placement(ByteReader& r,
                                                const netlist::Netlist* nl,
                                                place::Die* die_out) {
  place::Die die;
  die.width_um = r.get_f64();
  die.height_um = r.get_f64();
  die.row_height_um = r.get_f64();
  die.site_width_um = r.get_f64();
  const std::uint64_t cells = r.get_u64();
  if (cells != nl->cell_count())
    throw Error("snapshot corrupt: placement cell count " +
                std::to_string(cells) + " != netlist cell count " +
                std::to_string(nl->cell_count()));
  auto placement = std::make_unique<place::Placement>(nl, die);
  for (std::uint64_t c = 0; c < cells; ++c) {
    place::CellLocation loc;
    loc.row = r.get_i32();
    loc.site = r.get_i32();
    placement->set_location(static_cast<netlist::CellId>(c), loc);
  }
  *die_out = die;
  return placement;
}

void put_table(ByteWriter& w, const liberty::NldmTable& t) {
  w.put_f64_vec(t.slew_axis());
  w.put_f64_vec(t.load_axis());
  for (std::size_t i = 0; i < t.slew_points(); ++i)
    for (std::size_t j = 0; j < t.load_points(); ++j) w.put_f64(t.at(i, j));
}

liberty::NldmTable get_table(ByteReader& r) {
  std::vector<double> slew = r.get_f64_vec();
  std::vector<double> load = r.get_f64_vec();
  liberty::NldmTable t(std::move(slew), std::move(load));
  for (std::size_t i = 0; i < t.slew_points(); ++i)
    for (std::size_t j = 0; j < t.load_points(); ++j) t.at(i, j) = r.get_f64();
  return t;
}

void put_library(ByteWriter& w, const liberty::Library& lib) {
  w.put_f64(lib.delta_l_nm());
  w.put_f64(lib.delta_w_nm());
  w.put_u64(lib.cell_count());
  for (const liberty::CharacterizedCell& cell : lib.cells()) {
    w.put_string(cell.name);
    w.put_u64(cell.master_index);
    w.put_f64(cell.input_cap_ff);
    w.put_f64(cell.leakage_nw);
    put_table(w, cell.arc.delay_rise);
    put_table(w, cell.arc.delay_fall);
    put_table(w, cell.arc.slew_rise);
    put_table(w, cell.arc.slew_fall);
  }
}

std::unique_ptr<liberty::Library> get_library(ByteReader& r,
                                              const tech::TechNode& node) {
  const double delta_l = r.get_f64();
  const double delta_w = r.get_f64();
  auto lib = std::make_unique<liberty::Library>(node, delta_l, delta_w);
  const std::uint64_t cells = r.get_u64();
  for (std::uint64_t i = 0; i < cells; ++i) {
    liberty::CharacterizedCell cell;
    cell.name = r.get_string();
    cell.master_index = r.get_u64();
    cell.input_cap_ff = r.get_f64();
    cell.leakage_nw = r.get_f64();
    cell.arc.delay_rise = get_table(r);
    cell.arc.delay_fall = get_table(r);
    cell.arc.slew_rise = get_table(r);
    cell.arc.slew_fall = get_table(r);
    lib->add_cell(std::move(cell));
  }
  return lib;
}

}  // namespace

std::uint64_t write_design_state(std::ostream& os, const gen::DesignSpec& spec,
                                 const netlist::Netlist& netlist,
                                 const place::Placement& placement,
                                 const liberty::LibraryRepository& repo) {
  faultinject::maybe_throw(g_fault_write, "snapshot write");
  ByteWriter w;
  put_spec(w, spec);

  // Master inventory, for read-time validation that the rebuilt repository
  // aligns index-for-index with the snapshotted netlist.
  w.put_u64(repo.masters().size());
  for (const liberty::CellMaster& m : repo.masters()) w.put_string(m.name);

  put_netlist(w, netlist);
  put_placement(w, placement);

  const std::vector<std::pair<int, int>> keys = repo.characterized_keys();
  w.put_u64(keys.size());
  for (const auto& [il, iw] : keys) {
    const liberty::Library* lib = repo.find_variant(il, iw);
    DOSEOPT_CHECK(lib != nullptr, "snapshot: characterized variant vanished");
    w.put_i32(il);
    w.put_i32(iw);
    put_library(w, *lib);
  }

  return write_frame(os, kMagic, kSnapshotVersion, w.take());
}

DesignState read_design_state(std::istream& is) {
  faultinject::maybe_throw(g_fault_read, "snapshot read");
  const std::string payload =
      read_frame(is, kMagic, kSnapshotVersion, "snapshot");
  ByteReader r(payload);
  DesignState state;
  state.spec = get_spec(r);
  state.node = tech::tech_node_by_name(state.spec.tech);
  state.repo = std::make_unique<liberty::LibraryRepository>(state.node);

  const std::uint64_t master_count = r.get_u64();
  if (master_count != state.repo->masters().size())
    throw Error("snapshot: master inventory size mismatch");
  for (std::uint64_t i = 0; i < master_count; ++i) {
    const std::string name = r.get_string();
    if (name != state.repo->masters()[i].name)
      throw Error("snapshot: master name mismatch at index " +
                  std::to_string(i) + ": " + name + " != " +
                  state.repo->masters()[i].name);
  }

  state.netlist = get_netlist(r, &state.repo->masters());
  state.placement = get_placement(r, state.netlist.get(), &state.die);

  const std::uint64_t variant_count = r.get_u64();
  for (std::uint64_t v = 0; v < variant_count; ++v) {
    const std::int32_t il = r.get_i32();
    const std::int32_t iw = r.get_i32();
    state.repo->insert_variant(il, iw, get_library(r, state.node));
  }

  if (!r.exhausted())
    throw Error("snapshot corrupt: " + std::to_string(r.remaining()) +
                " trailing payload bytes");
  return state;
}

std::uint64_t write_design_snapshot(const std::string& path,
                                    const gen::DesignSpec& spec,
                                    const netlist::Netlist& netlist,
                                    const place::Placement& placement,
                                    const liberty::LibraryRepository& repo) {
  std::uint64_t checksum = 0;
  publish_atomic(path, [&](std::ostream& os) {
    checksum = write_design_state(os, spec, netlist, placement, repo);
  });
  return checksum;
}

DesignState read_design_snapshot(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw Error("snapshot: cannot open " + path);
  return read_design_state(is);
}

std::string journal_path(const std::string& dir) {
  return dir + "/journal.lastgood";
}

void journal_append(const std::string& dir, const std::string& name,
                    std::uint64_t checksum) {
  const std::string line = str_format("%s %016llx\n", name.c_str(),
                                      static_cast<unsigned long long>(checksum));
  // O_APPEND keeps concurrent appenders line-atomic for short lines;
  // the fsync makes the record durable before the caller trusts it.
  append_durable(journal_path(dir), line);
}

std::map<std::string, std::uint64_t> journal_read(const std::string& dir) {
  std::map<std::string, std::uint64_t> last_good;
  std::ifstream is(journal_path(dir));
  if (!is) return last_good;
  std::string line;
  while (std::getline(is, line)) {
    const auto space = line.find(' ');
    if (space == std::string::npos) continue;  // torn final line
    const std::string name = line.substr(0, space);
    char* end = nullptr;
    const unsigned long long checksum =
        std::strtoull(line.c_str() + space + 1, &end, 16);
    if (end == line.c_str() + space + 1) continue;
    last_good[name] = static_cast<std::uint64_t>(checksum);
  }
  return last_good;
}

}  // namespace doseopt::serde
