"""README's Library section, run as written."""

import os
import re
from pathlib import Path

from sefrag import container, sharing

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_snippets_run_in_order(tmp_path, monkeypatch):
    # The three blocks share one namespace, in the README's order.  The
    # prelude gives them only the data, and the third block the record id
    # from the second one's placement.
    section = README.read_text().split("\n## Library\n")[1].split("\n## ")[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 3
    monkeypatch.chdir(tmp_path)
    namespace = {"data": os.urandom(5000)}
    exec(blocks[0], namespace)
    exec(blocks[1], namespace)
    record_id = namespace["record_id"] = namespace["placement"].record_id
    exec(blocks[2], namespace)

    assert container.pair_id(namespace["released_puf"], namespace["released_prf"]) == record_id
    assert namespace["released_prf"] == namespace["prf_bytes"]
    store = sharing.PolicyStore.load(tmp_path / "store" / "policy.json")
    assert store.owner_id == "owner-1"
    assert sharing.request_access(store, "colleague-7", "requester", record_id) == sharing.Decision.PUF_ONLY
