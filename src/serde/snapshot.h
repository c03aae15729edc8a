// Versioned, checksummed binary snapshots of analyzed-design state.
//
// A snapshot captures everything that is expensive to rebuild for a dose
// optimization request: the design spec, the generated netlist (with exact
// sink and PI/PO orders, so restored STA is bit-identical), the legal
// placement, and every characterized library variant (full NLDM tables).
// Parasitics and fitted coefficients are *derived* state -- recomputed
// deterministically from the restored objects -- and are not stored.
//
// A snapshot file is one durable.h frame (magic "DOSESNAP") around the
// payload: the reader validates the frame before decoding a single payload
// value, and any mismatch throws doseopt::Error with a description (never
// undefined behavior on corrupt input).
#pragma once

#include <iosfwd>
#include <map>
#include <memory>
#include <string>

#include "gen/design_gen.h"
#include "liberty/repository.h"
#include "netlist/netlist.h"
#include "place/placement.h"
#include "tech/tech_node.h"

namespace doseopt::serde {

/// Current snapshot format version.
inline constexpr std::uint32_t kSnapshotVersion = 1;

/// A restored design: the netlist is bound to the repository's master list,
/// the repository holds every variant the snapshot carried.  Feed this to
/// flow::DesignContext to resume optimization without re-generating or
/// re-characterizing anything.
struct DesignState {
  gen::DesignSpec spec;
  tech::TechNode node;
  std::unique_ptr<liberty::LibraryRepository> repo;
  std::unique_ptr<netlist::Netlist> netlist;
  place::Die die;
  std::unique_ptr<place::Placement> placement;
};

/// Serialize design state to a stream.  `repo` contributes its master list
/// (validated on read) and every characterized variant.  Returns the
/// payload checksum written into the header.
std::uint64_t write_design_state(std::ostream& os, const gen::DesignSpec& spec,
                                 const netlist::Netlist& netlist,
                                 const place::Placement& placement,
                                 const liberty::LibraryRepository& repo);

/// Deserialize a snapshot written by write_design_state.  Throws
/// doseopt::Error on bad magic, unsupported version, size or checksum
/// mismatch, or structurally invalid content (netlist validation runs).
DesignState read_design_state(std::istream& is);

/// File convenience wrappers.  The write streams the snapshot through
/// publish_atomic (durable.h), so a crash or power cut leaves the old file
/// or the new one.  Returns the payload checksum (for the last-good
/// journal).
std::uint64_t write_design_snapshot(const std::string& path,
                                    const gen::DesignSpec& spec,
                                    const netlist::Netlist& netlist,
                                    const place::Placement& placement,
                                    const liberty::LibraryRepository& repo);
DesignState read_design_snapshot(const std::string& path);

/// Last-good snapshot journal: an append-only text file recording, for
/// every successfully published snapshot, its file name and payload
/// checksum.  On restore failure the journal distinguishes "this file was
/// once verified good and has since been corrupted on disk" from "unknown
/// file" -- and gives tests/tools a durable record to audit against.
///
/// Format: one `<name> <checksum-hex>` line per publish; later lines win.
/// Appended with append_durable (O_APPEND + fsync), not a JournalWriter:
/// fleet workers share one snapshot directory, and O_APPEND keeps their
/// short lines whole without the single-writer sequence a JournalWriter
/// enforces.
void journal_append(const std::string& dir, const std::string& name,
                    std::uint64_t checksum);

/// Read the journal back as name -> last recorded checksum.  A missing
/// journal yields an empty map; a torn final line (crash mid-append) is
/// skipped, never an error.
std::map<std::string, std::uint64_t> journal_read(const std::string& dir);

/// Journal file path inside `dir` (for tests and tooling).
std::string journal_path(const std::string& dir);

}  // namespace doseopt::serde
