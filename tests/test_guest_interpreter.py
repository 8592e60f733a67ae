"""End-to-end tests of the VX86 reference interpreter on real programs."""

import pytest

from repro.guest.assembler import assemble
from repro.guest.interpreter import AccessObserver, GuestFault, GuestInterpreter


def run_program(source: str, stdin: bytes = b"", max_instructions: int = 1_000_000):
    """Assemble, load and run; returns the finished interpreter."""
    program = assemble(source)
    interp = GuestInterpreter.for_program(program, stdin=stdin)
    interp.run(max_instructions)
    return interp


EXIT = """
    mov ebx, eax        ; exit code = eax
    mov eax, 1
    int 0x80
"""


class TestArithmeticPrograms:
    def test_sum_loop(self):
        interp = run_program(
            f"""
            _start:
                mov ecx, 100
                xor eax, eax
            top:
                add eax, ecx
                dec ecx
                jnz top
            {EXIT}
            """
        )
        assert interp.exit_code == 5050 & 0xFF

    def test_factorial_with_stack(self):
        interp = run_program(
            f"""
            _start:
                mov eax, 6
                call fact
            {EXIT}
            fact:
                cmp eax, 1
                jle base
                push eax
                dec eax
                call fact
                pop ecx
                imul eax, ecx
                ret
            base:
                mov eax, 1
                ret
            """
        )
        assert interp.exit_code == 720 % 256

    def test_fibonacci_iterative(self):
        interp = run_program(
            f"""
            _start:
                mov eax, 0
                mov ebx, 1
                mov ecx, 10
            fib:
                mov edx, eax
                add edx, ebx
                mov eax, ebx
                mov ebx, edx
                dec ecx
                jnz fib
            {EXIT}
            """
        )
        assert interp.exit_code == 55

    def test_division(self):
        interp = run_program(
            f"""
            _start:
                mov eax, 1000
                xor edx, edx
                mov ecx, 7
                div ecx
                ; eax = 142, edx = 6
                add eax, edx
            {EXIT}
            """
        )
        assert interp.exit_code == 148

    def test_signed_division(self):
        interp = run_program(
            f"""
            _start:
                mov eax, 0 - 100
                cdq
                mov ecx, 7
                idiv ecx
                neg eax            ; 14
            {EXIT}
            """
        )
        assert interp.exit_code == 14

    def test_shifts_and_logic(self):
        interp = run_program(
            f"""
            _start:
                mov eax, 1
                shl eax, 6          ; 64
                mov ecx, 2
                shr eax, ecx        ; 16
                or eax, 3           ; 19
                and eax, 0xFF
                xor eax, 1          ; 18
            {EXIT}
            """
        )
        assert interp.exit_code == 18


class TestMemoryPrograms:
    def test_array_sum(self):
        interp = run_program(
            f"""
            _start:
                xor eax, eax
                xor ecx, ecx
            top:
                add eax, [array + ecx*4]
                inc ecx
                cmp ecx, 5
                jne top
            {EXIT}
            .data
            array: dd 1, 2, 3, 4, 5
            """
        )
        assert interp.exit_code == 15

    def test_byte_access(self):
        interp = run_program(
            f"""
            _start:
                movzx eax, [bytes + 1]
                movsx ecx, [bytes + 2]
                add eax, ecx        ; 200 + (-1) = 199
            {EXIT}
            .data
            bytes: db 10, 200, 0xFF
            """
        )
        assert interp.exit_code == 199

    def test_store_and_reload(self):
        interp = run_program(
            f"""
            _start:
                mov [scratch], 0x1234
                mov eax, [scratch]
                movb [scratch], 0xFF
                movzx ecx, [scratch]
                sub eax, ecx        ; 0x1234 - 0xFF
                and eax, 0xFF
            {EXIT}
            .data
            scratch: dd 0
            """
        )
        assert interp.exit_code == (0x1234 - 0xFF) & 0xFF

    def test_stack_operations(self):
        interp = run_program(
            f"""
            _start:
                mov eax, 11
                mov ecx, 22
                push eax
                push ecx
                pop eax             ; 22
                pop ecx             ; 11
                sub eax, ecx        ; 11
            {EXIT}
            """
        )
        assert interp.exit_code == 11

    def test_xchg(self):
        interp = run_program(
            f"""
            _start:
                mov eax, 3
                mov ecx, 9
                xchg eax, ecx       ; eax=9 ecx=3
                sub eax, ecx        ; 6
            {EXIT}
            """
        )
        assert interp.exit_code == 6


class TestControlFlow:
    def test_indirect_jump_table(self):
        interp = run_program(
            f"""
            _start:
                mov eax, 1
                jmp [table + eax*4]
            case0:
                mov eax, 10
                jmp done
            case1:
                mov eax, 20
                jmp done
            done:
            {EXIT}
            .data
            table: dd case0, case1
            """
        )
        assert interp.exit_code == 20

    def test_call_through_register(self):
        interp = run_program(
            f"""
            _start:
                mov edx, fn
                call edx
            {EXIT}
            fn:
                mov eax, 77
                ret
            """
        )
        assert interp.exit_code == 77

    def test_ret_imm_pops_arguments(self):
        interp = run_program(
            f"""
            _start:
                mov esi, esp
                push 5
                push 6
                call fn
                sub esi, esp        ; stack balanced -> 0
                add eax, esi
            {EXIT}
            fn:
                mov eax, [esp + 4]  ; 6
                add eax, [esp + 8]  ; + 5
                ret 8
            """
        )
        assert interp.exit_code == 11

    def test_setcc(self):
        interp = run_program(
            f"""
            _start:
                mov ecx, 0
                cmp ecx, 1
                setl eax            ; 0 < 1 -> 1
                setg ecx            ; 0 > 1 -> 0... ecx low byte
                add eax, ecx
            {EXIT}
            """
        )
        assert interp.exit_code == 1

    def test_unsigned_vs_signed_branching(self):
        interp = run_program(
            f"""
            _start:
                mov eax, 0 - 1       ; 0xFFFFFFFF
                cmp eax, 1
                ja above             ; unsigned: taken
                mov eax, 0
                jmp done
            above:
                mov eax, 1
                cmp eax, 2
                jl less              ; signed: taken
                mov eax, 0
                jmp done
            less:
                mov eax, 42
            done:
            {EXIT}
            """
        )
        assert interp.exit_code == 42


class TestSyscallsAndIo:
    def test_hello_world(self):
        interp = run_program(
            """
            _start:
                mov eax, 4          ; SYS_write
                mov ebx, 1          ; stdout
                mov ecx, msg
                mov edx, 13
                int 0x80
                mov eax, 1
                mov ebx, 0
                int 0x80
            .data
            msg: db "Hello, world!"
            """
        )
        assert interp.syscalls.stdout_text == "Hello, world!"
        assert interp.exit_code == 0

    def test_echo_stdin(self):
        interp = run_program(
            """
            _start:
                mov eax, 3          ; SYS_read
                mov ebx, 0
                mov ecx, buf
                mov edx, 32
                int 0x80
                mov edx, eax        ; bytes read
                mov eax, 4
                mov ebx, 1
                int 0x80
                mov eax, 1
                mov ebx, 0
                int 0x80
            .data
            buf: dz 32
            """,
            stdin=b"ping",
        )
        assert interp.syscalls.stdout_text == "ping"

    def test_brk_heap_allocation(self):
        interp = run_program(
            f"""
            _start:
                mov eax, 45          ; SYS_brk query
                mov ebx, 0
                int 0x80
                mov esi, eax         ; current break
                mov ebx, eax
                add ebx, 0x1000
                mov eax, 45          ; grow
                int 0x80
                mov [esi], 1234      ; heap is writable
                mov eax, [esi]
                sub eax, 1234        ; 0
            {EXIT}
            """
        )
        assert interp.exit_code == 0


class TestFaults:
    def test_divide_by_zero(self):
        with pytest.raises(GuestFault):
            run_program("_start: xor ecx, ecx\nxor edx, edx\nmov eax, 1\ndiv ecx\nhlt\n")

    def test_unmapped_memory(self):
        with pytest.raises(GuestFault):
            run_program("_start: mov eax, [0x10]\nhlt\n")

    def test_runaway_loop_hits_budget(self):
        with pytest.raises(GuestFault):
            run_program("_start: jmp _start\n", max_instructions=1000)

    def test_bad_interrupt_vector(self):
        with pytest.raises(GuestFault):
            run_program("_start: int 0x21\nhlt\n")


class TestObserver:
    def test_observer_sees_accesses(self):
        events = []

        class Recorder(AccessObserver):
            def on_read(self, address, size):
                events.append(("r", size))

            def on_write(self, address, size):
                events.append(("w", size))

        program = assemble(
            """
            _start:
                mov eax, [data]
                mov [data], eax
                cmp eax, 0
                jne skip
            skip:
                hlt
            .data
            data: dd 7
            """
        )
        interp = GuestInterpreter.for_program(program, observer=Recorder())
        interp.run()
        assert ("r", 4) in events
        assert ("w", 4) in events

    def test_stats_counted(self):
        interp = run_program(
            f"""
            _start:
                mov ecx, 3
            top:
                dec ecx
                jnz top
            {EXIT}
            """
        )
        assert interp.stats["instructions"] > 5
