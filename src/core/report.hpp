// Paper-style result tables: the benches print spec / manual / synthesis
// columns in the format of the paper's Table 1.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace amsyn::core {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void addRow(std::vector<std::string> cells);
  /// Convenience: format a double with the given precision.
  static std::string num(double v, int precision = 3);

  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace amsyn::core
