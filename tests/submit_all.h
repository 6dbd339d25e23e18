/**
 * @file
 * Test helper: submit a batch to an engine and collect its results.
 */

#ifndef EXION_TESTS_SUBMIT_ALL_H_
#define EXION_TESTS_SUBMIT_ALL_H_

#include <vector>

#include "exion/serve/batch_engine.h"

namespace exion
{

/**
 * Submits every request, then waits for each ticket in turn and
 * returns the results in request order. A failed request rethrows
 * from its Ticket::get().
 */
inline std::vector<RequestResult>
submitAll(BatchEngine &engine, const std::vector<ServeRequest> &requests)
{
    std::vector<Ticket> tickets;
    tickets.reserve(requests.size());
    for (const ServeRequest &req : requests)
        tickets.push_back(engine.submit(req));
    std::vector<RequestResult> results;
    results.reserve(tickets.size());
    for (const Ticket &ticket : tickets)
        results.push_back(ticket.get());
    return results;
}

} // namespace exion

#endif // EXION_TESTS_SUBMIT_ALL_H_
