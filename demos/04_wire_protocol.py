"""Talk to a recommender over HTTP exactly as the simulator would.

Any conversational agent can be evaluated as a black box by speaking one
tiny wire protocol: ``POST {base_url}/respond`` with a JSON body
``{"session_id": ..., "utterance": ...}``, answered by
``{"utterance": ..., "terminate": ...}``. An empty utterance asks the
agent to open the conversation. This demo serves the bundled mock
recommender on a loopback port and holds a short scripted session.
"""

from crssim import (AgentEndpoint, bundled, load_domain,
                    load_item_collection, serve_mock, wire_exchange)

domain = load_domain(bundled.asset_path(bundled.DOMAIN))
items = load_item_collection(bundled.asset_path(bundled.ITEMS), domain)

server = serve_mock(items)
print(f"mock recommender listening on {server.base_url}\n")

endpoint = AgentEndpoint(server.base_url, timeout=5.0, retry_count=2)
session = "wire-demo"

try:
    for line in ("",                       # empty utterance opens the session
                 "i feel like a thriller",
                 "tell me more about it",
                 "no, something else",
                 "yes, sounds perfect"):
        reply, terminate = wire_exchange(endpoint, session, line)
        shown = line if line else "(open)"
        print(f"  -> {shown}")
        print(f"  <- {reply}{'   [terminate]' if terminate else ''}")
        if terminate:
            break

    print("\n=== raw request log (what actually went over the wire) ===")
    for session_id, utterance in server.request_log:
        print(f"  POST /respond session_id={session_id!r} "
              f"utterance={utterance!r}")
finally:
    endpoint.close()
    server.stop()
print("\nserver stopped")
