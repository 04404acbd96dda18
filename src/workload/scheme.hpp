#pragma once

#include <string>

namespace xmp::workload {

/// Transport scheme used by *large* flows (small flows always use plain
/// TCP in the paper). The trailing digit of the paper's scheme names
/// ("XMP-2", "LIA-4") is `subflows`. Bos is single-path BOS, the testbed
/// figures' constant-factor reduction (Fig. 1's halving at β = 2).
struct SchemeSpec {
  enum class Kind { Tcp, Dctcp, Xmp, Lia, Olia, Bos };

  Kind kind = Kind::Xmp;
  int subflows = 2;  ///< ignored for Tcp/Dctcp/Bos
  int beta = 4;      ///< XMP and BOS window-reduction factor 1/β
  /// Declare a multipath subflow dead after this many consecutive RTOs
  /// (0 = never, the fault-free default — keeps fault-free runs
  /// bit-identical to builds without the fault subsystem).
  int dead_after_rtos = 0;
  /// Re-home a detected-dead subflow onto a fresh path tag up to this many
  /// times per connection before killing it (0 = kill immediately, the
  /// pre-PathManager default).
  int max_rehomes = 0;

  [[nodiscard]] bool multipath() const {
    return kind == Kind::Xmp || kind == Kind::Lia || kind == Kind::Olia;
  }

  [[nodiscard]] std::string name() const {
    switch (kind) {
      case Kind::Tcp:
        return "TCP";
      case Kind::Dctcp:
        return "DCTCP";
      case Kind::Xmp:
        return "XMP-" + std::to_string(subflows);
      case Kind::Lia:
        return "LIA-" + std::to_string(subflows);
      case Kind::Olia:
        return "OLIA-" + std::to_string(subflows);
      case Kind::Bos:
        return "BOS";
    }
    return "?";
  }
};

}  // namespace xmp::workload
