"""RPR003 bad: a constructed backend that never reaches shutdown."""


class ProcessBackend:
    def __init__(self, n: int) -> None:
        self.n = n

    def submit(self, fn, *args):
        return fn(*args)

    def shutdown(self) -> None:
        pass


def work(x: int) -> int:
    return x * 2


def leak(n: int) -> int:
    backend = ProcessBackend(n)  # finding: never shut down
    rid = backend.submit(work, 1)
    return rid
