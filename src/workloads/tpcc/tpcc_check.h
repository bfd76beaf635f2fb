#ifndef MICROSPEC_WORKLOADS_TPCC_TPCC_CHECK_H_
#define MICROSPEC_WORKLOADS_TPCC_TPCC_CHECK_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "engine/database.h"

namespace microspec::tpcc {

/// Checks the TPC-C consistency conditions 1-4 of spec §3.3.2 by full scans
/// of warehouse, district, torders, neworder and orderline:
///   1. w_ytd = sum(d_ytd) over the warehouse's districts;
///   2. d_next_o_id - 1 = max(o_id) = max(no_o_id) per district;
///   3. max(no_o_id) - min(no_o_id) + 1 = count(neworder) per district;
///   4. sum(o_ol_cnt) = count(orderline) per district.
/// Returns one line per violated condition and district (or warehouse); an
/// empty vector means consistent. Needs no index, so it runs on a database
/// reopened by restart recovery.
Result<std::vector<std::string>> CheckConsistency(Database* db);

}  // namespace microspec::tpcc

#endif  // MICROSPEC_WORKLOADS_TPCC_TPCC_CHECK_H_
